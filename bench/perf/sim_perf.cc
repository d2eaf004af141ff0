// sim_perf: the repository's performance benchmark — host speed of the
// simulator end to end (simulation rate, pass and set-up time, memory,
// cold sweep turnaround) and layer by layer, with every run's outputs
// checked. Run it through bench/perf/run.sh, which builds it; see
// bench/perf/README.md for the metrics, workloads and baselines.
//
//   sim_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--quick] [--out FILE]
//   sim_perf [--runs R] [--seed N] [--trace 0|1] [--quick] [--out FILE]
//   sim_perf compare A.json B.json
//
// The contract — run length, workload names, metric names, units,
// directions and bounds — is read from BENCHMARK.json; --seconds exists
// because the benchmark's command line carries it, and must equal the
// file's run_seconds.
//
// With --workload, measures that workload in this process, prints its
// metric table and then one JSON line — {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}} — holding the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
// Without it, runs every workload R times (default 5 end to end, else 1),
// each run in a fresh child process with seed N, N+1, ..., workloads
// interleaved so slow drift of the host spreads over all of them. Each
// metric is then summarized over the runs (median, quartiles, min, max,
// n) and all runs go into one result file (default
// build/sim-perf/results/<time>-<mode>.json; the children's output goes
// beside it as <file>.log).
//
// compare applies the regression rule per (workload, metric) to two
// result files, over their runs: B's median may not be worse than A's by
// more than the metric's bound, and when either side's quartile spread
// exceeds the bound the pair is "unresolved" unless every B run beats
// every A run. A pair is "improved" only when every B run beats every A
// run and the medians differ by more than A's spread. Files whose runs
// differ in mode, budget or seeds are refused.
//
// Must run from the repository root. Exit status: 0 when every check
// passed (compare: nothing regressed or unresolved), 1 on a failed check
// or a regression, 2 on usage or environment errors, 3 when compare found
// unresolved pairs but no regression.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/table.h"
#include "perf_bench.h"
#include "perf_metrics.h"
#include "perf_workloads.h"

namespace {

namespace fs = std::filesystem;
using smt::JsonValue;
using smt::JsonWriter;
using namespace smt::perf;

constexpr char kSpecPath[] = "BENCHMARK.json";
constexpr char kBuildDir[] = "build/sim-perf";
constexpr char kHistoryDir[] = "bench/history";
constexpr int kDefaultRuns = 5;

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnresolved = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  std::optional<double> seconds;
  bool trace = false;
  bool quick = false;
  int runs = 0;  // 0: the mode's default
  std::string out;
};

int usage() {
  std::fprintf(stderr,
               "usage: sim_perf --workload NAME [--seed N] [--seconds S]\n"
               "                [--trace 0|1] [--quick] [--out FILE]\n"
               "       sim_perf [--runs R] [--seed N] [--trace 0|1] [--quick]\n"
               "                [--out FILE]\n"
               "       sim_perf compare A.json B.json\n"
               "workloads:");
  for (const WorkloadDef& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return kExitUsage;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') return false;
    } else if (flag == "--runs") {
      a->runs = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a->runs < 1) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !(a->trace && a->quick);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string pct(double share) { return num(100 * share) + "%"; }

const char* mode_name(const Args& a) {
  return a.trace ? "per-layer" : a.quick ? "quick" : "end-to-end";
}

/// The metrics a run of this mode reports.
const std::vector<MetricDef>& listed(const Spec& spec, bool trace) {
  return trace ? spec.per_layer : spec.end_to_end;
}

// ---------------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------------

/// One run's entry of a result file.
std::string run_json(const Args& a, const Spec& spec, const BenchResult& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("workload", a.workload);
  w.kv("seed", a.seed);
  w.kv("seconds", spec.run_seconds);
  w.kv("mode", mode_name(a));
  w.kv("correct", r.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.kv("host_speed", r.host_speed);
  w.key("metrics");
  w.begin_object();
  for (const MetricDef& m : listed(spec, a.trace)) {
    const auto it = r.values.find(m.name);
    if (it == r.values.end()) continue;
    w.key(m.name);
    w.begin_object();
    w.kv("value", it->second);
    w.kv("unit", m.unit);
    const auto s = r.samples.find(m.name);
    if (s != r.samples.end()) {
      w.key("samples");
      w.begin_array();
      for (double v : s->second) w.value(v);
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  if (!r.layer_self_s.empty()) {
    w.key("layer_self_s");
    w.begin_object();
    for (const auto& [layer, s] : r.layer_self_s) w.kv(layer, s);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string result_file(const std::string& runs_json) {
  return "{\"schema\":\"sim-perf-result/1\",\"runs\":[" + runs_json + "]}";
}

void print_run(const Args& a, const Spec& spec, const BenchResult& r) {
  std::printf(
      "== %s  seed %llu  %s  correct=%s attempted=%llu failed=%llu  "
      "host speed %.3g x reference\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      mode_name(a), r.failed == 0 ? "yes" : "NO",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.host_speed);
  if (a.quick) return;
  if (!a.trace) {
    // Over the repetitions behind each value: passes, set-ups or sweeps.
    smt::TextTable t({"metric", "unit", "median", "q1", "q3", "min", "max",
                      "n", "bound"});
    for (const MetricDef& m : spec.end_to_end) {
      const auto v = r.values.find(m.name);
      if (v == r.values.end()) continue;
      const auto s = r.samples.find(m.name);
      const Summary x = summarize(s == r.samples.end()
                                      ? std::vector<double>{v->second}
                                      : s->second);
      t.add_row({m.name, m.unit, num(x.median), num(x.q1), num(x.q3),
                 num(x.min), num(x.max), std::to_string(x.n), pct(m.bound)});
    }
    std::printf("%s", t.to_string().c_str());
    return;
  }
  smt::TextTable t({"metric", "unit", "value"});
  for (const MetricDef& m : spec.per_layer) {
    const auto v = r.values.find(m.name);
    if (v != r.values.end()) t.add_row({m.name, m.unit, num(v->second)});
  }
  std::printf("%s", t.to_string().c_str());
  double total = 0;
  for (const auto& [layer, s] : r.layer_self_s) total += s;
  smt::TextTable layers({"layer", "self s", "share"});
  for (const auto& [layer, s] : r.layer_self_s) {
    layers.add_row({layer, num(s), pct(s / total)});
  }
  std::printf("%s", layers.to_string().c_str());
}

/// The machine-readable result: the last line of standard output.
void print_result_line(const Args& a, const Spec& spec, const BenchResult& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("correct", r.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics");
  w.begin_object();
  for (const MetricDef& m : listed(spec, a.trace)) {
    const auto it = r.values.find(m.name);
    if (it == r.values.end()) continue;
    w.key(m.name);
    w.begin_object();
    w.kv("value", it->second);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

int run_one(const Args& a, const Spec& spec) {
  const WorkloadDef* def = find_workload(a.workload);
  if (def == nullptr) return usage();
  if (a.seconds.has_value() && *a.seconds != spec.run_seconds) {
    std::fprintf(stderr, "sim_perf: --seconds must be %s's run_seconds (%g)\n",
                 kSpecPath, spec.run_seconds);
    return kExitUsage;
  }
  BenchOptions opt;
  opt.workload = def;
  opt.seed = a.seed;
  opt.seconds = spec.run_seconds;
  opt.trace = a.trace;
  opt.quick = a.quick;
  opt.sweep_bin = std::string(kBuildDir) + "/tools/smt_sweep";
  opt.history_dir = kHistoryDir;
  opt.work_dir = std::string(kBuildDir) + "/work/" + a.workload + "-" +
                 std::to_string(getpid());
  opt.trace_path = std::string(kBuildDir) + "/trace/" + a.workload +
                   ".trace.json";
  if (!fs::is_regular_file(opt.sweep_bin) || !fs::is_directory(kHistoryDir)) {
    std::fprintf(stderr,
                 "sim_perf: run from the repository root after building "
                 "(missing %s or %s)\n",
                 opt.sweep_bin.c_str(), kHistoryDir);
    return kExitUsage;
  }

  // glibc adapts its mmap and trim thresholds to the allocation history,
  // so the same set-up pays a different number of page faults depending
  // on which job ran first — and seeds shuffle the job order. Fixed
  // thresholds keep set-up times comparable across seeds.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
  BenchResult r = run_bench(opt);

  // The run must have measured exactly the metrics the contract lists.
  std::vector<std::string> want;
  for (const MetricDef& m : listed(spec, a.trace)) want.push_back(m.name);
  std::vector<std::string> got;
  for (const auto& [name, v] : r.values) got.push_back(name);
  std::sort(want.begin(), want.end());
  ++r.attempted;
  if (got != want) {
    ++r.failed;
    std::fprintf(stderr, "sim_perf: FAILED measured metrics differ from %s\n",
                 kSpecPath);
  }

  if (!a.out.empty() &&
      !smt::write_text_file(a.out, result_file(run_json(a, spec, r)))) {
    return kExitUsage;
  }
  print_run(a, spec, r);
  if (a.trace) std::printf("trace: %s\n", opt.trace_path.c_str());
  print_result_line(a, spec, r);
  return r.failed == 0 ? 0 : kExitFailed;
}

// ---------------------------------------------------------------------------
// Result files: runs grouped by workload
// ---------------------------------------------------------------------------

using Runs = std::map<std::string, std::vector<const JsonValue*>>;

/// Groups a result file's runs by workload, keeping first-seen order.
std::optional<Runs> group_runs(const JsonValue& doc,
                               std::vector<std::string>* order) {
  const JsonValue* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) return std::nullopt;
  Runs out;
  for (const JsonValue& r : runs->array) {
    const JsonValue* w = r.find("workload");
    if (w == nullptr || !w->is_string()) return std::nullopt;
    if (out.find(w->string) == out.end()) order->push_back(w->string);
    out[w->string].push_back(&r);
  }
  return out;
}

/// The value of `metric` in each run that has it.
std::vector<double> run_values(const std::vector<const JsonValue*>& runs,
                               const std::string& metric) {
  std::vector<double> out;
  for (const JsonValue* r : runs) {
    const JsonValue* metrics = r->find("metrics");
    const JsonValue* m = metrics ? metrics->find(metric) : nullptr;
    const JsonValue* v = m ? m->find("value") : nullptr;
    if (v != nullptr && v->is_number()) out.push_back(v->number);
  }
  return out;
}

/// How a workload's runs were taken: each run's mode, budget and seed,
/// in a canonical order. Two sides are comparable only when these match.
std::string run_conditions(const std::vector<const JsonValue*>& runs) {
  std::vector<std::string> each;
  for (const JsonValue* r : runs) {
    std::string c;
    for (const char* field : {"mode", "seconds", "seed"}) {
      const JsonValue* v = r->find(field);
      c += std::string(field) + "=" +
           (v != nullptr ? smt::to_canonical_string(*v) : "?") + " ";
    }
    each.push_back(c);
  }
  std::sort(each.begin(), each.end());
  std::string out;
  for (const std::string& c : each) out += c;
  return out;
}

void print_summary(const Spec& spec, const JsonValue& doc, bool trace) {
  std::vector<std::string> order;
  const std::optional<Runs> runs = group_runs(doc, &order);
  if (!runs.has_value()) return;
  if (trace) {
    std::vector<std::string> header = {"metric", "unit"};
    header.insert(header.end(), order.begin(), order.end());
    smt::TextTable t(header);
    for (const MetricDef& m : spec.per_layer) {
      std::vector<std::string> row = {m.name, m.unit};
      for (const std::string& w : order) {
        const std::vector<double> v = run_values(runs->at(w), m.name);
        row.push_back(v.empty() ? "-" : num(summarize(v).median));
      }
      t.add_row(row);
    }
    std::printf("%s", t.to_string().c_str());
    return;
  }
  smt::TextTable t({"workload", "metric", "unit", "median", "q1", "q3",
                    "min", "max", "n", "spread", "bound"});
  for (const std::string& w : order) {
    for (const MetricDef& m : spec.end_to_end) {
      const std::vector<double> v = run_values(runs->at(w), m.name);
      if (v.empty()) continue;
      const Summary s = summarize(v);
      t.add_row({w, m.name, m.unit, num(s.median), num(s.q1), num(s.q3),
                 num(s.min), num(s.max), std::to_string(s.n), pct(spread(s)),
                 pct(m.bound)});
    }
  }
  std::printf("%s", t.to_string().c_str());
}

// ---------------------------------------------------------------------------
// Every workload, each run in a fresh process
// ---------------------------------------------------------------------------

int run_all(const Args& a, const Spec& spec) {
  if (a.seconds.has_value()) return usage();
  std::string out = a.out;
  if (out.empty()) {
    char stamp[32];
    const std::time_t now = std::time(nullptr);
    std::strftime(stamp, sizeof stamp, "%Y%m%dT%H%M%S", std::gmtime(&now));
    out = std::string(kBuildDir) + "/results/" + stamp + "-" + mode_name(a) +
          ".json";
  }
  const std::string log = out + ".log";
  const int runs = a.runs > 0 ? a.runs : a.trace || a.quick ? 1 : kDefaultRuns;
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  std::string runs_json;
  int failures = 0;
  if (!smt::write_text_file(log, "")) return kExitUsage;
  for (int i = 0; i < runs; ++i) {
    const std::string seed = std::to_string(a.seed + static_cast<uint64_t>(i));
    for (const WorkloadDef& def : workloads()) {
      const std::string part = out + ".part";
      std::vector<std::string> argv = {self,    "--workload", def.name,
                                       "--seed", seed,         "--trace",
                                       a.trace ? "1" : "0",    "--out",
                                       part};
      if (a.quick) argv.push_back("--quick");
      std::printf("sim_perf: %s seed %s ...\n", def.name.c_str(), seed.c_str());
      const int status = run_process(argv, log);
      const std::optional<JsonValue> doc = read_json(part);
      fs::remove(part);
      const JsonValue* entries = doc ? doc->find("runs") : nullptr;
      if (status != 0 || entries == nullptr || entries->array.size() != 1) {
        std::fprintf(stderr, "sim_perf: %s seed %s failed (exit %d)\n",
                     def.name.c_str(), seed.c_str(), status);
        ++failures;
        if (entries == nullptr || entries->array.size() != 1) continue;
      }
      if (!runs_json.empty()) runs_json += ",";
      runs_json += smt::to_canonical_string(entries->array[0]);
    }
  }
  const std::string doc = result_file(runs_json);
  if (!smt::write_text_file(out, doc)) return kExitUsage;
  if (!a.quick) print_summary(spec, *smt::parse_json(doc), a.trace);
  std::printf("sim_perf: %s; results: %s (run output: %s)\n",
              failures == 0 ? "every run correct" : "FAILED runs (see above)",
              out.c_str(), log.c_str());
  return failures == 0 ? 0 : kExitFailed;
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

int compare(const Spec& spec, const std::string& a_path,
            const std::string& b_path) {
  const std::optional<JsonValue> a = read_json(a_path);
  const std::optional<JsonValue> b = read_json(b_path);
  std::vector<std::string> a_order;
  std::vector<std::string> b_order;
  const std::optional<Runs> ar = a ? group_runs(*a, &a_order) : std::nullopt;
  const std::optional<Runs> br = b ? group_runs(*b, &b_order) : std::nullopt;
  if (!ar.has_value() || !br.has_value()) {
    std::fprintf(stderr, "sim_perf compare: %s or %s is not a result file\n",
                 a_path.c_str(), b_path.c_str());
    return kExitUsage;
  }
  for (const std::string& w : b_order) {
    if (ar->find(w) == ar->end()) continue;
    const std::string ac = run_conditions(ar->at(w));
    const std::string bc = run_conditions(br->at(w));
    if (ac != bc) {
      std::fprintf(stderr,
                   "sim_perf compare: %s was measured differently\n  A: %s\n"
                   "  B: %s\n",
                   w.c_str(), ac.c_str(), bc.c_str());
      return kExitUsage;
    }
  }
  smt::TextTable t({"workload", "metric", "A median", "A spread", "B median",
                    "B spread", "change", "bound", "verdict"});
  int regressed = 0;
  int unresolved = 0;
  for (const std::string& w : b_order) {
    if (ar->find(w) == ar->end()) continue;
    for (const MetricDef& m : spec.end_to_end) {
      const std::vector<double> av = run_values(ar->at(w), m.name);
      const std::vector<double> bv = run_values(br->at(w), m.name);
      if (av.empty() || bv.empty()) continue;
      const Summary sa = summarize(av);
      const Summary sb = summarize(bv);
      const double change = (sb.median - sa.median) / sa.median;
      // Oriented so that a positive value means B is worse.
      const double dir = m.higher_is_better ? -1.0 : 1.0;
      const double worse = dir * change;
      bool b_dominates = true;
      for (double x : bv) {
        for (double y : av) b_dominates = b_dominates && dir * (x - y) < 0;
      }
      std::string verdict = "within";
      if (std::max(spread(sa), spread(sb)) > m.bound && !b_dominates) {
        verdict = "unresolved";
        ++unresolved;
      } else if (worse > m.bound) {
        verdict = "REGRESSED";
        ++regressed;
      } else if (b_dominates && -worse > spread(sa)) {
        verdict = "improved";
      }
      t.add_row({w, m.name, num(sa.median), pct(spread(sa)), num(sb.median),
                 pct(spread(sb)), pct(change), pct(m.bound), verdict});
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("%d regressed, %d unresolved\n", regressed, unresolved);
  if (regressed > 0) return kExitFailed;
  return unresolved > 0 ? kExitUnresolved : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Spec> spec = load_spec(kSpecPath, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "sim_perf: %s (run from the repository root)\n",
                 error.c_str());
    return kExitUsage;
  }
  std::vector<std::string> names;
  for (const WorkloadDef& w : workloads()) names.push_back(w.name);
  if (spec->workloads != names) {
    std::fprintf(stderr, "sim_perf: %s names other workloads than sim_perf's\n",
                 kSpecPath);
    return kExitUsage;
  }
  if (argc >= 2 && std::string(argv[1]) == "compare") {
    if (argc != 4) return usage();
    return compare(*spec, argv[2], argv[3]);
  }
  Args a;
  if (!parse_args(argc, argv, &a)) return usage();
  return a.workload.empty() ? run_all(a, *spec) : run_one(a, *spec);
}
