#include "perf_bench.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/lint.h"
#include "common/io.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "host/result_store.h"
#include "isa/serialize.h"
#include "mem/hierarchy.h"
#include "perf_metrics.h"
#include "perf_probe.h"
#include "perf_trace.h"
#include "perfmon/cycle_accounting.h"
#include "trace/telemetry.h"

extern char** environ;

namespace smt::perf {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Fresh set-ups per job per pass; setup_s is their median, because one
// set-up takes milliseconds and a single sample is mostly timer noise.
constexpr int kSetupRepeats = 9;
// Warm re-runs per sweep round. They are checked, not timed, in end-to-end
// runs: one takes milliseconds, mostly process start-up and file I/O that
// no probe tracks, and spread 10-35% from run to run here. Traced runs
// time kTracedWarmSweeps of them as host.warm_sweep_s.
constexpr int kWarmSweeps = 2;
constexpr int kTracedWarmSweeps = 5;
constexpr int kSweepWorkers = 2;
// Sweep rounds per pass in end-to-end runs. A cold sweep's workers run on
// other cores than the probe, so one cold sweep scales worse than one
// pass (median within-run coefficient of variation 5.4% against 3.5%
// over 80 runs); it needs more samples.
constexpr int kRoundsPerPass = 2;
// Observer ablation: each (job, observer) run simulates this prefix of
// the job, so the ratio compares the same simulated work in every config;
// each config's fastest of kAblationRepeats is compared.
constexpr Cycle kAblationCycles = 60'000;
constexpr int kAblationRepeats = 3;
// Memory-hierarchy replay length (accesses) and repetitions.
constexpr size_t kReplayAccesses = size_t{1} << 20;
constexpr int kReplayRepeats = 3;

/// Everything Machine's constructor attaches from the global telemetry
/// default: time-series + event trace, per-PC profiler, interference
/// profiler and the windowed (default [0, 100000]) pipeview recorder.
trace::TelemetryConfig all_observer_telemetry() {
  trace::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.pc_profile = true;
  cfg.interference = true;
  cfg.pipeview = true;
  return cfg;
}

/// Sets the process-global telemetry default that every new Machine
/// reads, restoring the previous one at scope exit.
class GlobalTelemetry {
 public:
  explicit GlobalTelemetry(const trace::TelemetryConfig& cfg)
      : prev_(trace::global_telemetry()) {
    trace::set_global_telemetry(cfg);
  }
  ~GlobalTelemetry() { trace::set_global_telemetry(prev_); }
  GlobalTelemetry(const GlobalTelemetry&) = delete;
  GlobalTelemetry& operator=(const GlobalTelemetry&) = delete;

 private:
  trace::TelemetryConfig prev_;
};

/// The race-detector wiring core::try_run_workload does for
/// RunOptions::race_detect, for runs that drive a Machine by hand.
void attach_race_detector(core::Machine& m, const core::Workload& w) {
  m.enable_race_detector();
  const core::MemInfo mi = w.mem_info();
  analysis::RaceDetector& det = *m.race_detector();
  for (const auto& r : mi.data) det.add_extent(r.base, r.bytes);
  for (const auto& r : mi.sync) {
    det.add_extent(r.base, r.bytes);
    for (uint64_t off = 0; off + 8 <= r.bytes; off += 8) {
      det.add_sync_word(r.base + off);
    }
  }
  det.set_extents_complete(mi.complete);
}

void load_programs(core::Machine& m, const std::vector<isa::Program>& progs) {
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t counter(const JsonValue& metrics, const std::string& name) {
  const JsonValue* counters = metrics.find("counters");
  const JsonValue* v = counters ? counters->find(name) : nullptr;
  return v != nullptr ? static_cast<uint64_t>(v->number) : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Job {
  const host::ExperimentDef* def = nullptr;
  // Counters of the job's first run (detached for the observed workload):
  // every later run must reproduce them exactly.
  bool have_ref = false;
  Cycle ref_cycles = 0;
  perfmon::Snapshot ref_events;
  // Report bytes of the first measured run; later ones must match.
  std::string report;
};

class Bench {
 public:
  explicit Bench(const BenchOptions& opt)
      : opt_(opt), start_(Clock::now()) {}

  BenchResult run();

 private:
  double elapsed() const { return since(start_); }
  /// Probes the host and returns the factor that scales host seconds
  /// measured since the previous probe to the reference host.
  double rescale();
  void gate(bool ok, const std::string& what);
  void add(const std::string& metric, double v) {
    res_.samples[metric].push_back(v);
  }
  void set(const std::string& metric, double v) { res_.values[metric] = v; }

  bool resolve_jobs();
  bool check_seeded_factories();
  core::RunOptions run_options(bool observed) const;
  double time_setup(const Job& j);
  double pass(bool observed, bool record);
  void check_run(Job& j, const core::RunOutcome& o, const std::string& report,
                 bool measured);
  void sweep_round(int warm_sweeps, bool layers);
  std::optional<std::map<std::string, std::string>> check_sweep(
      const std::string& out, int status, const std::string& what);
  double traced_pass(Tracer& tr);
  void observer_ablation();
  void memory_replay();
  void set_end_to_end_values();

  const BenchOptions& opt_;
  const Clock::time_point start_;
  std::vector<Job> jobs_;
  int rounds_ = 0;
  HostProbe probe_;
  SetupProbe setup_probe_;
  double last_probe_s_ = 0;
  BenchResult res_;
};

double Bench::rescale() {
  const double now = probe_.seconds();
  const double before = last_probe_s_ > 0 ? last_probe_s_ : now;
  last_probe_s_ = now;
  res_.samples["host_speed"].push_back(kProbeRefSeconds / now);
  return kProbeRefSeconds / ((before + now) / 2);
}

void Bench::gate(bool ok, const std::string& what) {
  ++res_.attempted;
  if (!ok) {
    ++res_.failed;
    std::fprintf(stderr, "sim_perf: FAILED %s\n", what.c_str());
  }
}

bool Bench::resolve_jobs() {
  for (const std::string& name : opt_.workload->jobs) {
    const host::ExperimentDef* def = host::find_experiment(name);
    gate(def != nullptr, "unknown registry job " + name);
    if (def == nullptr) return false;
    Job j;
    j.def = def;
    jobs_.push_back(std::move(j));
  }
  // Seeded runs also reorder the jobs, so no order-dependent host effect
  // (allocator state, cache warmth) is baked into the measurement.
  if (opt_.seed != 0) {
    Rng rng(opt_.seed);
    for (size_t i = jobs_.size(); i > 1; --i) {
      std::swap(jobs_[i - 1], jobs_[rng.next_below(i)]);
    }
  }
  return true;
}

// A seeded job must be the registry's job with other data: same workload
// name (which encodes the kernel parameters) and same guest programs.
bool Bench::check_seeded_factories() {
  // One workload alive at a time, so the check adds nothing to the
  // process's peak memory.
  const auto identity = [](const host::ExperimentDef& def, uint64_t seed) {
    std::vector<std::string> id;
    const std::unique_ptr<core::Workload> w = make_job(def, seed);
    if (w == nullptr) return id;
    id.push_back(w->name());
    core::Machine m;
    w->setup(m);
    for (const isa::Program& p : w->programs()) {
      id.push_back(isa::program_digest(p));
    }
    return id;
  };
  bool all_same = true;
  for (const Job& j : jobs_) {
    const std::vector<std::string> registry = identity(*j.def, 0);
    const std::vector<std::string> seeded = identity(*j.def, opt_.seed);
    const bool same = !seeded.empty() && seeded == registry;
    gate(same, j.def->name + ": seeded factory differs from the registry's");
    all_same = all_same && same;
  }
  return all_same;
}

core::RunOptions Bench::run_options(bool observed) const {
  core::RunOptions ro;
  ro.race_detect = observed;
  ro.flight_recorder = observed;
  return ro;
}

// One fresh set-up of `j`, scaled by the set-up probe taken just before
// and after it: the host's slow phases come and go within seconds.
double Bench::time_setup(const Job& j) {
  const double before = setup_probe_.seconds();
  const Clock::time_point t0 = Clock::now();
  {
    const std::unique_ptr<core::Workload> w = make_job(*j.def, opt_.seed);
    core::Machine m;
    w->setup(m);
    load_programs(m, w->programs());
  }
  const double raw = since(t0);
  const double after = setup_probe_.seconds();
  return raw * kSetupProbeRefSeconds / ((before + after) / 2);
}

// One closed-loop pass over the jobs; returns its raw wall seconds.
// Recorded passes add one (scaled) sample of each pass metric and
// kSetupRepeats of setup_s.
double Bench::pass(bool observed, bool record) {
  const GlobalTelemetry telemetry(observed ? all_observer_telemetry()
                                           : trace::TelemetryConfig{});
  const core::RunOptions ro = run_options(observed);
  std::array<double, kSetupRepeats> setup{};
  double wall = 0;
  double sim = 0;
  uint64_t uops = 0;
  uint64_t cycles = 0;
  double raw_wall = 0;
  for (Job& j : jobs_) {
    for (double& s : setup) s += time_setup(j);
    rescale();
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<core::Workload> w = make_job(*j.def, opt_.seed);
    const Clock::time_point t1 = Clock::now();
    const core::RunOutcome o = core::try_run_workload(
        core::MachineConfig{}, *w, j.def->cycle_budget, nullptr, ro);
    const double job_sim = since(t1);
    const std::string report = core::RunReport::from(o.stats).to_json();
    const double job_wall = since(t0);
    const double scale = rescale();
    sim += job_sim * scale;
    wall += job_wall * scale;
    raw_wall += job_wall;
    uops += o.stats.total(perfmon::Event::kUopsRetired);
    cycles += o.stats.cycles;
    check_run(j, o, report, record);
  }
  if (record) {
    add("sim_uops_per_s", static_cast<double>(uops) / sim / 1e6);
    add("sim_cycles_per_s", static_cast<double>(cycles) / sim / 1e6);
    add("pass_wall_s", wall);
    for (double s : setup) add("setup_s", s);
  }
  return raw_wall;
}

void Bench::check_run(Job& j, const core::RunOutcome& o,
                      const std::string& report, bool measured) {
  std::string bad;
  if (!o.ok() || !o.stats.verified) {
    bad += std::string(" ended ") + core::name(o.status) + " (" + o.message +
           ")";
  }
  if (!j.have_ref) {
    j.have_ref = true;
    j.ref_cycles = o.stats.cycles;
    j.ref_events = o.stats.events;
    if (opt_.seed == 0) {
      const std::optional<HistoryRef> h =
          history_ref(opt_.history_dir, j.def->name);
      if (!h.has_value()) {
        bad += " has no bench/history baseline";
      } else if (h->cycles != o.stats.cycles ||
                 h->instr_retired !=
                     o.stats.total(perfmon::Event::kInstrRetired) ||
                 h->uops_retired !=
                     o.stats.total(perfmon::Event::kUopsRetired)) {
        bad += " differs from its bench/history counters";
      }
    }
  } else if (o.stats.cycles != j.ref_cycles ||
             o.stats.events.v != j.ref_events.v) {
    bad += " counters differ from its first (detached) run";
  }
  if (measured) {
    if (j.report.empty()) {
      j.report = report;
    } else if (report != j.report) {
      bad += " report bytes differ across passes";
    }
  }
  gate(bad.empty(), j.def->name + bad);
}

// Parses one sweep's index and returns job name -> report bytes, gating
// the exit status and every job's outcome.
std::optional<std::map<std::string, std::string>> Bench::check_sweep(
    const std::string& out, int status, const std::string& what) {
  std::string bad;
  std::map<std::string, std::string> reports;
  const std::optional<JsonValue> index = read_json(out + "/sweep_index.json");
  const JsonValue* entries = index ? index->find("jobs") : nullptr;
  if (status != 0) bad += " exited " + std::to_string(status);
  if (entries == nullptr || entries->array.size() != jobs_.size()) {
    bad += " wrote no complete index";
  } else {
    for (const JsonValue& e : entries->array) {
      const JsonValue* name = e.find("name");
      const JsonValue* outcome = e.find("outcome");
      const JsonValue* verified = e.find("verified");
      const JsonValue* report = e.find("report");
      if (name == nullptr || outcome == nullptr || outcome->string != "ok" ||
          verified == nullptr || !verified->boolean || report == nullptr) {
        bad += " has a failed job";
        continue;
      }
      const std::optional<std::string> bytes =
          read_file(out + "/" + report->string);
      if (!bytes.has_value()) bad += " lost report " + report->string;
      reports[name->string] = bytes.value_or("");
    }
  }
  gate(bad.empty(), what + bad);
  if (!bad.empty()) return std::nullopt;
  return reports;
}

// One cold sweep into an empty result store, then `warm_sweeps` re-runs
// that must hit on every job and reproduce the cold reports byte for byte.
void Bench::sweep_round(int warm_sweeps, bool layers) {
  const std::string dir = opt_.work_dir + "/round" + std::to_string(rounds_++);
  fs::remove_all(dir);
  const auto sweep = [&](const std::string& tag) {
    std::vector<std::string> argv = {
        opt_.sweep_bin, "--quiet",          "--lint",
        "--jobs",       std::to_string(kSweepWorkers), "--cache",
        dir + "/cache", "--out",            dir + "/" + tag,
        "--metrics",    dir + "/" + tag + ".metrics.json"};
    for (const std::string& name : opt_.workload->jobs) argv.push_back(name);
    const Clock::time_point t0 = Clock::now();
    const int status = run_process(argv, "/dev/null");
    return std::pair<double, int>(since(t0), status);
  };
  const size_t n = jobs_.size();

  rescale();
  const auto [cold_s, cold_status] = sweep("cold");
  add("sweep_cold_s", cold_s * rescale());
  const auto cold = check_sweep(dir + "/cold", cold_status, "cold sweep");
  const std::optional<JsonValue> cold_metrics =
      read_json(dir + "/cold.metrics.json");
  gate(cold_metrics.has_value() && counter(*cold_metrics, "cache.misses") == n &&
           counter(*cold_metrics, "cache.stores") == n &&
           counter(*cold_metrics, "cache.hits") == 0,
       "cold sweep did not miss and store every job");
  // At seed 0 a detached in-process run and the sweep simulate the same
  // registry job, so their reports must agree byte for byte.
  if (cold.has_value() && opt_.seed == 0 && !opt_.workload->observed) {
    for (const Job& j : jobs_) {
      const auto it = cold->find(j.def->name);
      gate(it != cold->end() && it->second == j.report,
           j.def->name + ": sweep report differs from the in-process one");
    }
  }
  if (layers && cold_metrics.has_value()) {
    const double wall_us = static_cast<double>(counter(*cold_metrics, "pool.wall_us"));
    const uint64_t workers = counter(*cold_metrics, "pool.workers");
    double busy_us = 0;
    for (uint64_t w = 0; w < workers; ++w) {
      busy_us += static_cast<double>(counter(
          *cold_metrics, "pool.worker" + std::to_string(w) + ".busy_us"));
    }
    set("host.pool_busy_frac",
        busy_us / (static_cast<double>(workers) * wall_us));
    set("host.attempts_per_job",
        static_cast<double>(counter(*cold_metrics, "pool.attempts")) /
            static_cast<double>(n));
  }

  // The warm re-runs share one output directory, as repeated sweeps of a
  // user would; only the index goes before each, so none can pass on its
  // predecessor's.
  uint64_t hits = 0;
  uint64_t lookups = 0;
  std::vector<double> warm_s;
  for (int k = 0; k < warm_sweeps; ++k) {
    fs::remove(dir + "/warm/sweep_index.json");
    const auto [seconds, warm_status] = sweep("warm");
    warm_s.push_back(seconds);
    const auto warm = check_sweep(dir + "/warm", warm_status, "warm sweep");
    gate(warm.has_value() && cold.has_value() && *warm == *cold,
         "warm sweep reports differ from the cold sweep's");
    const std::optional<JsonValue> m = read_json(dir + "/warm.metrics.json");
    const uint64_t h = m ? counter(*m, "cache.hits") : 0;
    const uint64_t l = m ? counter(*m, "cache.lookups") : 0;
    gate(h == n && l == n, "warm sweep missed the cache");
    hits += h;
    lookups += l;
  }
  if (layers) {
    set("host.warm_sweep_s", summarize(warm_s).median);
    set("host.cache_hit_ratio",
        static_cast<double>(hits) / static_cast<double>(lookups));
  }
  fs::remove_all(dir);
}

// The pass again, driving each layer's public calls by hand so every call
// gets its own span; then the host-layer calls a cached sweep makes per
// job (digest, lint, result key, store, load). Returns the seconds the
// simulation path took (the traced counterpart of pass_wall_s).
double Bench::traced_pass(Tracer& tr) {
  const bool observed = opt_.workload->observed;
  const GlobalTelemetry telemetry(observed ? all_observer_telemetry()
                                           : trace::TelemetryConfig{});
  const host::ResultStore store(opt_.work_dir + "/store");
  double wall = 0;
  uint64_t uops = 0;
  uint64_t cycles = 0;
  uint64_t l2_misses = 0;
  uint64_t report_bytes = 0;
  double active = 0, halted = 0, memory_bound = 0;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    Job& j = jobs_[i];
    const int id = static_cast<int>(i);
    std::unique_ptr<core::Workload> w;
    std::unique_ptr<core::Machine> m;
    std::vector<isa::Program> progs;
    cpu::RunResult run;
    bool verified = false;
    std::string report;
    const Clock::time_point t0 = Clock::now();
    {
      const ScopedSpan job(tr, "bench.job", id);
      {
        const ScopedSpan s(tr, "kernels.make", id);
        w = make_job(*j.def, opt_.seed);
      }
      {
        const ScopedSpan s(tr, "core.machine", id);
        m = std::make_unique<core::Machine>();
      }
      {
        const ScopedSpan s(tr, "kernels.setup", id);
        w->setup(*m);
      }
      if (observed) {
        const ScopedSpan s(tr, "core.attach_observers", id);
        attach_race_detector(*m, *w);
        m->enable_flight_recorder();
      }
      {
        const ScopedSpan s(tr, "kernels.programs", id);
        progs = w->programs();
      }
      {
        const ScopedSpan s(tr, "core.load_program", id);
        load_programs(*m, progs);
      }
      {
        const ScopedSpan s(tr, "cpu.try_run", id);
        run = m->try_run(j.def->cycle_budget);
      }
      {
        const ScopedSpan s(tr, "kernels.verify", id);
        verified = run.ok() && w->verify(*m);
      }
      {
        const ScopedSpan s(tr, "core.report", id);
        report = core::report_from_machine(*m, w->name(), verified).to_json();
      }
    }
    wall += since(t0);
    gate(run.ok() && verified && report == j.report,
         j.def->name + ": traced run differs from the untraced one");
    uops += m->counters().total(perfmon::Event::kUopsRetired);
    l2_misses += m->counters().total(perfmon::Event::kL2Misses);
    cycles += m->cycles();
    report_bytes += report.size();
    const perfmon::CycleAccounting acc =
        perfmon::account_cycles(m->counters().snapshot(), m->cycles());
    for (const perfmon::CpuCycleBreakdown& b : acc.cpu) {
      active += static_cast<double>(b.active);
      halted += static_cast<double>(b.halted);
      memory_bound += static_cast<double>(b.memory_bound);
    }

    std::vector<std::string> digests;
    {
      const ScopedSpan s(tr, "isa.digest", id);
      for (const isa::Program& p : progs) digests.push_back(isa::program_digest(p));
    }
    size_t lint_errors = 0;
    {
      const ScopedSpan s(tr, "analysis.lint", id);
      analysis::LintOptions lo;
      const core::MemInfo mi = w->mem_info();
      for (const auto& r : mi.data) lo.extents.push_back({r.base, r.bytes, r.name});
      for (const auto& r : mi.sync) lo.extents.push_back({r.base, r.bytes, r.name});
      lo.extents_complete = mi.complete;
      for (const auto& d : analysis::lint_concurrency(progs)) {
        lint_errors += analysis::count_severity(d, analysis::Severity::kError);
      }
      for (const isa::Program& p : progs) {
        lint_errors += analysis::count_severity(analysis::lint_program(p, lo),
                                                analysis::Severity::kError);
      }
    }
    gate(lint_errors == 0, j.def->name + ": lint errors");
    host::ResultKey key;
    {
      // The key smt_sweep computes: it always attaches the flight recorder.
      core::RunOptions sweep_options;
      sweep_options.flight_recorder = true;
      const ScopedSpan s(tr, "host.result_key", id);
      key = host::result_key(*j.def, core::MachineConfig{}, j.def->cycle_budget,
                             sweep_options);
    }
    gate(key.program_digests == digests,
         j.def->name + ": result key digests differ from isa::program_digest");
    host::CachedResult entry;
    entry.outcome = "ok";
    entry.cycles = m->cycles();
    entry.verified = verified;
    entry.report_json = report;
    bool stored = false;
    {
      const ScopedSpan s(tr, "host.store", id);
      stored = store.store(key, entry);
    }
    std::optional<host::CachedResult> loaded;
    {
      const ScopedSpan s(tr, "host.load", id);
      loaded = store.load(key);
    }
    gate(stored && loaded.has_value() && loaded->report_json == report,
         j.def->name + ": result store did not round-trip the report");
  }

  const double sim_s = tr.self_of("cpu.try_run");
  set("cpu.sim_s", sim_s);
  set("cpu.ns_per_uop", sim_s / static_cast<double>(uops) * 1e9);
  set("cpu.ns_per_cycle", sim_s / static_cast<double>(cycles) * 1e9);
  set("cpu.memory_bound_frac", memory_bound / active);
  set("cpu.halted_frac", halted / (active + halted));
  set("cpu.cycles", static_cast<double>(cycles));
  set("cpu.uops_retired", static_cast<double>(uops));
  set("mem.l2_misses", static_cast<double>(l2_misses));
  set("kernels.setup_s", tr.self_of("kernels.make") +
                             tr.self_of("kernels.setup") +
                             tr.self_of("kernels.programs"));
  set("core.machine_s", tr.self_of("core.machine") +
                            tr.self_of("core.attach_observers") +
                            tr.self_of("core.load_program"));
  set("kernels.verify_s", tr.self_of("kernels.verify"));
  set("core.report_s", tr.self_of("core.report"));
  set("core.report_bytes", static_cast<double>(report_bytes));
  set("isa.digest_s", tr.self_of("isa.digest"));
  set("analysis.lint_s", tr.self_of("analysis.lint"));
  set("host.result_key_s", tr.self_of("host.result_key"));
  set("host.store_s", tr.self_of("host.store"));
  set("host.load_s", tr.self_of("host.load"));
  return wall;
}

// Host seconds of Machine::try_run over the same simulated prefix of
// each job with one observer attached at a time, against none. Observers
// are pure: every config must end with identical counters.
void Bench::observer_ablation() {
  using Attach = std::function<void(core::Machine&, const core::Workload&)>;
  const Attach telemetry = [](core::Machine& m, const core::Workload&) {
    trace::TelemetryConfig cfg;
    cfg.enabled = true;
    m.enable_telemetry(cfg);
  };
  const Attach pipeview = [](core::Machine& m, const core::Workload&) {
    m.enable_pipeview(trace::PipeViewConfig{});
  };
  const std::vector<std::pair<std::string, Attach>> configs = {
      {"detached", [](core::Machine&, const core::Workload&) {}},
      {"pc_profiler",
       [](core::Machine& m, const core::Workload&) { m.enable_pc_profiler(); }},
      {"interference",
       [](core::Machine& m, const core::Workload&) { m.enable_interference(); }},
      {"race_detector", attach_race_detector},
      {"telemetry", telemetry},
      {"pipeview", pipeview},
      {"flight_recorder",
       [](core::Machine& m, const core::Workload&) {
         m.enable_flight_recorder();
       }},
      {"all",
       [&](core::Machine& m, const core::Workload& w) {
         telemetry(m, w);
         m.enable_pc_profiler();
         m.enable_interference();
         pipeview(m, w);
         attach_race_detector(m, w);
         m.enable_flight_recorder();
       }},
  };
  const GlobalTelemetry off{trace::TelemetryConfig{}};
  std::map<std::string, std::vector<double>> sim_s;
  std::vector<std::pair<Cycle, perfmon::Snapshot>> ref(jobs_.size());
  for (int rep = 0; rep < kAblationRepeats; ++rep) {
    for (const auto& [name, attach] : configs) {
      double total = 0;
      for (size_t i = 0; i < jobs_.size(); ++i) {
        const std::unique_ptr<core::Workload> w = make_job(*jobs_[i].def, opt_.seed);
        core::Machine m;
        w->setup(m);
        attach(m, *w);
        load_programs(m, w->programs());
        const Clock::time_point t0 = Clock::now();
        m.try_run(kAblationCycles);
        total += since(t0);
        const auto state = std::make_pair(m.cycles(), m.counters().snapshot());
        if (rep == 0 && name == "detached") {
          ref[i] = state;
        } else {
          gate(state.first == ref[i].first && state.second.v == ref[i].second.v,
               jobs_[i].def->name + ": observer " + name +
                   " perturbed the counters");
        }
      }
      sim_s[name].push_back(total);
    }
  }
  const double base = summarize(sim_s["detached"]).min;
  for (const auto& [name, samples] : sim_s) {
    if (name == "detached") continue;
    set("observer." + name + ".overhead", summarize(samples).min / base - 1);
  }
}

// Replays a seeded mix of sequential streams (three quarters of the
// accesses) and uniformly random lines over 16 MiB through a fresh
// hierarchy, alternating the two logical CPUs.
void Bench::memory_replay() {
  struct Access {
    Addr addr;
    bool write;
  };
  Rng rng(opt_.seed ^ 0x6d656d7265706c61ull);
  std::vector<Access> trace(kReplayAccesses);
  std::array<Addr, kNumLogicalCpus> cursor = {0x100000, 0x900000};
  for (size_t i = 0; i < trace.size(); ++i) {
    const size_t cpu = i % kNumLogicalCpus;
    Addr a = 0;
    if (rng.next_below(4) == 0) {
      a = 0x2000000 + rng.next_below(1u << 24) / 8 * 8;
    } else {
      a = cursor[cpu];
      cursor[cpu] += 8;
    }
    trace[i] = {a, rng.next_below(4) == 0};
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    mem::CacheHierarchy h{mem::HierConfig{}};
    Cycle now = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < trace.size(); ++i) {
      now += 2;
      h.access(trace[i].addr, trace[i].write,
               static_cast<CpuId>(i % kNumLogicalCpus), now);
    }
    ns.push_back(since(t0) / static_cast<double>(trace.size()) * 1e9);
  }
  set("mem.access_ns", summarize(ns).min);
}

BenchResult Bench::run() {
  if (!resolve_jobs()) return res_;
  if (opt_.seed != 0 && !check_seeded_factories()) return res_;
  const bool observed = opt_.workload->observed;
  fs::remove_all(opt_.work_dir);

  if (opt_.trace) {
    Tracer tr;
    const double untraced = pass(observed, /*record=*/true);
    const double traced = traced_pass(tr);
    set("bench.trace_overhead", traced / untraced - 1);
    // The layer table covers the traced pass; the experiments below have
    // metrics of their own.
    res_.layer_self_s = tr.self_by_layer();
    {
      const ScopedSpan s(tr, "mem.replay");
      memory_replay();
    }
    {
      const ScopedSpan s(tr, "bench.observer_ablation");
      observer_ablation();
    }
    {
      const ScopedSpan s(tr, "host.sweep_round");
      sweep_round(kTracedWarmSweeps, /*layers=*/true);
    }
    std::vector<std::string> names;
    for (const Job& j : jobs_) names.push_back(j.def->name);
    const std::string json = tr.chrome_json(names);
    gate(write_text_file(opt_.trace_path, json) &&
             read_json(opt_.trace_path).has_value(),
         "Chrome trace " + opt_.trace_path + " does not parse");
  } else {
    // The observed workload's counters are checked against a detached
    // run of the same jobs, which also warms the process up.
    if (observed) pass(false, false);
    const auto timed = [](const std::function<void()>& unit) {
      const Clock::time_point t0 = Clock::now();
      unit();
      return since(t0);
    };
    const auto one_pass = [&] { pass(observed, true); };
    const auto one_round = [&] {
      sweep_round(opt_.quick ? 1 : kWarmSweeps, false);
    };
    double pass_s = timed(one_pass);
    double round_s = timed(one_round);
    // Alternate a pass with kRoundsPerPass sweep rounds; none starts once
    // it is predicted to end after the budget.
    for (bool more = !opt_.quick; more;) {
      more = false;
      if (elapsed() + pass_s <= opt_.seconds) {
        pass_s = timed(one_pass);
        more = true;
      }
      for (int k = 0; k < kRoundsPerPass; ++k) {
        if (elapsed() + round_s <= opt_.seconds) {
          round_s = timed(one_round);
          more = true;
        }
      }
    }
    set_end_to_end_values();
  }
  fs::remove_all(opt_.work_dir);
  res_.host_speed = summarize(res_.samples["host_speed"]).median;
  res_.samples.erase("host_speed");
  // A traced run's untraced pass only anchors bench.trace_overhead.
  if (opt_.trace) res_.samples.clear();
  return res_;
}

// Medians over the run's repetitions, each already scaled to the
// reference host.
void Bench::set_end_to_end_values() {
  for (const char* m : {"sim_uops_per_s", "sim_cycles_per_s", "pass_wall_s",
                        "setup_s", "sweep_cold_s"}) {
    set(m, summarize(res_.samples[m]).median);
  }
  set("peak_rss_mb", peak_rss_mb());
}

}  // namespace

BenchResult run_bench(const BenchOptions& opt) { return Bench(opt).run(); }

std::optional<JsonValue> read_json(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  return text ? parse_json(*text) : std::nullopt;
}

int run_process(const std::vector<std::string>& argv,
                const std::string& stdout_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::fflush(stdout);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace smt::perf
