// smt_history: content-addressed benchmark-history store and noise-aware
// cross-run regression gate — the repo's durable performance memory.
//
//   $ smt_history ingest --sweep DIR [--history DIR] [--run-id ID]
//                        [--max-runs N]
//   $ smt_history check  --sweep DIR [--history DIR] [--last K]
//                        [--sigma S] [--rel-floor R] [--abs-floor A]
//   $ smt_history list   [--history DIR] [experiment names...]
//
// `ingest` reads a sweep's artifacts (`<dir>/sweep_index.json`, read
// through host::parse_sweep_index — format in src/host/sweep_index.h —
// plus every ok job's run report, validated by core::check_run_report)
// and appends one run per job to `<history>/BENCH_<experiment>.json` (schema
// smt-bench-history/1). Trajectories are content-addressed: runs are
// keyed by (experiment name, config hash, report schema), where the
// config hash is the FNV-1a digest of the report's canonicalized
// `config` section — results from different machine configurations or
// schema versions never mix. Ingest is idempotent per run id; the
// default id is a digest of the index's *deterministic* job fields
// (name, content key, outcome, cycles, verified, report path), so two
// sweeps of the same work at the same model get the same id no matter
// how long they took — re-ingesting a re-run (or a fully cache-hit
// sweep) of an already-stored sweep is a no-op. Indexes whose jobs
// predate content keys fall back to the digest of the raw index bytes.
// Trajectories keep the newest --max-runs (64) runs, and each stored
// run records its job's content key (when present) so a history entry
// can be traced back to its smt_sweep --cache object.
//
// `check` compares the same sweep against the stored trajectories: for
// each ok job and each deterministic metric (cycles + the report's
// `totals` section — wall_ms is stored for trend data but never gated),
// the last K (10) baseline runs feed a RunningStats accumulator, and the
// new value regresses when |new - mean| exceeds
//     max(abs-floor, sigma * stddev, rel-floor * |mean|)
// (defaults 0 / 3.0 / 0.02). The simulator is deterministic, so on an
// unchanged model the stored metrics are bit-identical and any deviation
// is a real model change: either a bug or an intentional change that
// should be re-ingested as the new baseline. Jobs with no trajectory for
// their key are reported as new, not failed.
//
// Exit status: 0 ok; 1 regression(s) (check only); 2 usage error;
// 3 I/O or parse error (a malformed index or report is logged with its
// finding).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/stats.h"
#include "core/report_check.h"
#include "host/sweep_index.h"

namespace fs = std::filesystem;

namespace {

using smt::JsonValue;

constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

constexpr char kHistorySchema[] = "smt-bench-history/1";

struct Options {
  std::string command;
  std::string sweep_dir;
  std::string history_dir = "bench/history";
  std::string run_id;       // ingest; default = stable index digest
  int max_runs = 64;        // ingest: trajectory length cap
  int last = 10;            // check: baseline window
  double sigma = 3.0;       // check: noise multiplier
  double rel_floor = 0.02;  // check: relative threshold floor
  double abs_floor = 0.0;   // check: absolute threshold floor
  std::vector<std::string> names;  // list: experiment filter
};

int usage() {
  std::fprintf(
      stderr,
      "usage: smt_history ingest --sweep DIR [--history DIR] [--run-id ID]"
      " [--max-runs N]\n"
      "       smt_history check  --sweep DIR [--history DIR] [--last K]"
      " [--sigma S]\n"
      "                          [--rel-floor R] [--abs-floor A]\n"
      "       smt_history list   [--history DIR] [experiment names...]\n");
  return kExitUsage;
}

// ---------------------------------------------------------------------------
// On-disk model
// ---------------------------------------------------------------------------

struct RunEntry {
  std::string run_id;
  std::string key;  // sweep content-address key; "" for pre-cache runs
  double wall_ms = 0.0;
  std::map<std::string, double> metrics;
};

struct Trajectory {
  std::string config_hash;
  std::string report_schema;
  std::vector<RunEntry> runs;  // oldest first
};

struct History {
  std::string experiment;
  std::vector<Trajectory> trajectories;
};

/// One ok job of the sweep being ingested/checked: its index entry plus
/// its report's trajectory key and metric set.
struct SweepRun {
  smt::host::IndexEntry job;
  std::string config_hash;
  std::string report_schema;
  std::map<std::string, double> metrics;
};

std::optional<JsonValue> load_json(const fs::path& path) {
  bool unreadable = false;
  std::optional<JsonValue> v = smt::read_json_object(path, &unreadable);
  if (!v.has_value() && !unreadable) {
    smt::log::error("does not parse as a JSON object",
                    {{"path", path.string()}});
  }
  return v;
}

fs::path history_file(const Options& opt, const std::string& experiment) {
  return fs::path(opt.history_dir) /
         ("BENCH_" + smt::sanitize_artifact_key(experiment) + ".json");
}

/// Loads one experiment's trajectory file; absent file -> empty history;
/// malformed file -> nullopt (corrupt history must not be silently
/// overwritten).
std::optional<History> load_history(const Options& opt,
                                    const std::string& experiment) {
  History h;
  h.experiment = experiment;
  const fs::path path = history_file(opt, experiment);
  std::error_code ec;
  if (!fs::exists(path, ec)) return h;

  const auto v = load_json(path);
  if (!v.has_value()) return std::nullopt;
  const JsonValue* schema = v->find("schema");
  const JsonValue* exp = v->find("experiment");
  const JsonValue* trajs = v->find("trajectories");
  if (schema == nullptr || schema->string != kHistorySchema ||
      exp == nullptr || exp->string != experiment || trajs == nullptr ||
      !trajs->is_array()) {
    smt::log::error("malformed history file", {{"path", path.string()},
                                               {"experiment", experiment}});
    return std::nullopt;
  }
  for (const JsonValue& tv : trajs->array) {
    Trajectory t;
    const JsonValue* hash = tv.find("config_hash");
    const JsonValue* rs = tv.find("report_schema");
    const JsonValue* runs = tv.find("runs");
    if (hash == nullptr || !hash->is_string() || rs == nullptr ||
        !rs->is_string() || runs == nullptr || !runs->is_array()) {
      smt::log::error("malformed trajectory", {{"path", path.string()}});
      return std::nullopt;
    }
    t.config_hash = hash->string;
    t.report_schema = rs->string;
    for (const JsonValue& rv : runs->array) {
      RunEntry r;
      const JsonValue* id = rv.find("run_id");
      const JsonValue* metrics = rv.find("metrics");
      if (id == nullptr || !id->is_string() || metrics == nullptr ||
          !metrics->is_object()) {
        smt::log::error("malformed run entry", {{"path", path.string()}});
        return std::nullopt;
      }
      r.run_id = id->string;
      const JsonValue* key = rv.find("key");
      if (key != nullptr && key->is_string()) r.key = key->string;
      const JsonValue* wall = rv.find("wall_ms");
      if (wall != nullptr && wall->is_number()) r.wall_ms = wall->number;
      for (const auto& [k, mv] : metrics->object) {
        if (mv.is_number()) r.metrics[k] = mv.number;
      }
      t.runs.push_back(std::move(r));
    }
    h.trajectories.push_back(std::move(t));
  }
  return h;
}

bool save_history(const Options& opt, const History& h) {
  smt::JsonWriter w;
  w.begin_object();
  w.kv("schema", kHistorySchema);
  w.kv("experiment", h.experiment);
  w.key("trajectories");
  w.begin_array();
  for (const Trajectory& t : h.trajectories) {
    w.begin_object();
    w.kv("config_hash", t.config_hash);
    w.kv("report_schema", t.report_schema);
    w.key("runs");
    w.begin_array();
    for (const RunEntry& r : t.runs) {
      w.begin_object();
      w.kv("run_id", r.run_id);
      w.kv("key", r.key);
      w.kv("wall_ms", r.wall_ms);
      w.key("metrics");
      w.begin_object();
      for (const auto& [k, v] : r.metrics) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return smt::write_text_file(history_file(opt, h.experiment).string(),
                              w.str());
}

Trajectory* find_trajectory(History& h, const std::string& config_hash,
                            const std::string& report_schema) {
  for (Trajectory& t : h.trajectories) {
    if (t.config_hash == config_hash && t.report_schema == report_schema) {
      return &t;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Sweep-artifact ingestion
// ---------------------------------------------------------------------------

/// Digest of the index's deterministic job fields, used as the default
/// run id: byte-identical re-runs of the same work (including fully
/// cached ones) map to the same id, while wall-clock fields (wall_ms,
/// attempts) never perturb it. Empty when any job predates content keys
/// — the caller then falls back to digesting the raw index bytes.
std::string stable_run_id(const smt::host::SweepIndex& index) {
  std::string canon = "smt-history-run-id/1\n";
  for (const smt::host::IndexEntry& job : index.jobs) {
    if (job.key.empty()) return "";
    canon += job.name + '\t' + job.key + '\t' + job.outcome + '\t' +
             std::to_string(job.cycles) + '\t' + (job.verified ? '1' : '0') +
             '\t' + job.report + '\n';
  }
  return smt::fnv1a64_hex(canon);
}

/// Reads the sweep index + every ok job's report; nullopt on any
/// malformed artifact. `default_run_id` receives the sweep's stable id
/// (see stable_run_id), or the raw index bytes' digest for pre-key
/// indexes.
std::optional<std::vector<SweepRun>> load_sweep(const std::string& dir,
                                                std::string* default_run_id) {
  const fs::path index_path = fs::path(dir) / smt::host::kSweepIndexFile;
  const std::optional<std::string> raw_index =
      smt::read_text_file(index_path);
  if (!raw_index.has_value()) {
    smt::log::error("cannot read sweep index",
                    {{"path", index_path.string()}});
    return std::nullopt;
  }
  smt::host::SweepIndex index;
  if (const auto finding = smt::host::parse_sweep_index(*raw_index, &index)) {
    smt::log::error("malformed sweep index",
                    {{"path", index_path.string()}, {"finding", *finding}});
    return std::nullopt;
  }
  *default_run_id = stable_run_id(index);
  if (default_run_id->empty()) {
    *default_run_id = smt::fnv1a64_hex(*raw_index);
  }

  std::vector<SweepRun> runs;
  for (const smt::host::IndexEntry& job : index.jobs) {
    if (!job.ok()) continue;  // partial numbers never ingest

    bool unreadable = false;
    const auto rv = smt::read_valid_json(
        (fs::path(dir) / job.report).string(), "malformed run report",
        smt::core::check_run_report, &unreadable);
    if (!rv.has_value()) return std::nullopt;

    SweepRun r;
    r.job = job;
    r.report_schema = rv->find("schema")->string;
    r.config_hash =
        smt::fnv1a64_hex(smt::to_canonical_string(*rv->find("config")));
    r.metrics["cycles"] = rv->find("cycles")->number;
    for (const auto& [k, tv] : rv->find("totals")->object) {
      if (tv.is_number()) r.metrics["totals." + k] = tv.number;
    }
    runs.push_back(std::move(r));
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_ingest(const Options& opt) {
  std::string default_run_id;
  const auto runs = load_sweep(opt.sweep_dir, &default_run_id);
  if (!runs.has_value()) return kExitIo;
  const std::string run_id =
      opt.run_id.empty() ? default_run_id : opt.run_id;

  int ingested = 0;
  int skipped = 0;
  for (const SweepRun& r : *runs) {
    auto h = load_history(opt, r.job.name);
    if (!h.has_value()) return kExitIo;
    Trajectory* t = find_trajectory(*h, r.config_hash, r.report_schema);
    if (t == nullptr) {
      h->trajectories.push_back({r.config_hash, r.report_schema, {}});
      t = &h->trajectories.back();
    }
    bool seen = false;
    for (const RunEntry& e : t->runs) seen = seen || e.run_id == run_id;
    if (seen) {
      ++skipped;
      smt::log::debug("run already ingested", {{"experiment", r.job.name},
                                               {"run_id", run_id}});
      continue;
    }
    RunEntry e;
    e.run_id = run_id;
    e.key = r.job.key;
    e.wall_ms = r.job.wall_ms;
    e.metrics = r.metrics;
    t->runs.push_back(std::move(e));
    if (t->runs.size() > static_cast<size_t>(opt.max_runs)) {
      t->runs.erase(t->runs.begin(),
                    t->runs.end() - static_cast<size_t>(opt.max_runs));
    }
    if (!save_history(opt, *h)) return kExitIo;
    ++ingested;
  }
  std::printf("ingested %d run(s), %d already present (run_id %s) into %s\n",
              ingested, skipped, run_id.c_str(), opt.history_dir.c_str());
  return 0;
}

int cmd_check(const Options& opt) {
  std::string default_run_id;
  const auto runs = load_sweep(opt.sweep_dir, &default_run_id);
  if (!runs.has_value()) return kExitIo;

  int regressions = 0;
  int compared = 0;
  int fresh = 0;
  for (const SweepRun& r : *runs) {
    const auto h = load_history(opt, r.job.name);
    if (!h.has_value()) return kExitIo;
    History mutable_h = *h;
    const Trajectory* t =
        find_trajectory(mutable_h, r.config_hash, r.report_schema);
    if (t == nullptr || t->runs.empty()) {
      ++fresh;
      smt::log::info("no baseline trajectory (new experiment/config)",
                     {{"experiment", r.job.name},
                      {"config_hash", r.config_hash},
                      {"report_schema", r.report_schema}});
      continue;
    }
    ++compared;
    const size_t k = std::min(t->runs.size(), static_cast<size_t>(opt.last));
    for (const auto& [metric, value] : r.metrics) {
      smt::RunningStats stats;
      for (size_t i = t->runs.size() - k; i < t->runs.size(); ++i) {
        const auto it = t->runs[i].metrics.find(metric);
        if (it != t->runs[i].metrics.end()) stats.add(it->second);
      }
      if (stats.count() == 0) continue;  // metric new in this schema
      const double mean = stats.mean();
      const double threshold =
          std::max({opt.abs_floor, opt.sigma * stats.stddev(),
                    opt.rel_floor * std::fabs(mean)});
      if (std::fabs(value - mean) > threshold) {
        std::printf(
            "REGRESSION %-24s %-22s baseline=%.6g (n=%llu sd=%.3g) "
            "new=%.6g (%+.2f%%)\n",
            r.job.name.c_str(), metric.c_str(), mean,
            static_cast<unsigned long long>(stats.count()), stats.stddev(),
            value, mean != 0.0 ? 100.0 * (value - mean) / mean : 0.0);
        ++regressions;
      }
    }
  }
  if (regressions > 0) {
    std::printf("%d regression(s) across %d compared job(s)\n", regressions,
                compared);
    return kExitRegression;
  }
  std::printf("OK: %d job(s) within thresholds, %d without baseline "
              "(sigma=%.2g rel=%.2g abs=%.2g last=%d)\n",
              compared, fresh, opt.sigma, opt.rel_floor, opt.abs_floor,
              opt.last);
  return 0;
}

int cmd_list(const Options& opt) {
  std::error_code ec;
  if (!fs::is_directory(opt.history_dir, ec)) {
    smt::log::error("history directory does not exist",
                    {{"path", opt.history_dir}});
    return kExitIo;
  }
  int printed = 0;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(opt.history_dir)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("BENCH_", 0) == 0) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    const auto v = load_json(path);
    if (!v.has_value()) return kExitIo;
    const JsonValue* exp = v->find("experiment");
    const JsonValue* trajs = v->find("trajectories");
    if (exp == nullptr || trajs == nullptr || !trajs->is_array()) continue;
    if (!opt.names.empty() &&
        std::find(opt.names.begin(), opt.names.end(), exp->string) ==
            opt.names.end()) {
      continue;
    }
    for (const JsonValue& tv : trajs->array) {
      const JsonValue* hash = tv.find("config_hash");
      const JsonValue* rs = tv.find("report_schema");
      const JsonValue* runs = tv.find("runs");
      if (hash == nullptr || runs == nullptr || !runs->is_array()) continue;
      double last_cycles = 0.0;
      if (!runs->array.empty()) {
        const JsonValue* m = runs->array.back().find("metrics");
        if (m != nullptr) {
          const JsonValue* c = m->find("cycles");
          if (c != nullptr) last_cycles = c->number;
        }
      }
      std::printf("%-28s %s %-16s %3zu run(s)  last cycles=%.0f\n",
                  exp->string.c_str(), hash->string.c_str(),
                  rs != nullptr ? rs->string.c_str() : "?",
                  runs->array.size(), last_cycles);
      ++printed;
    }
  }
  if (printed == 0) std::printf("no trajectories in %s\n",
                                opt.history_dir.c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Options* opt) {
  if (argc < 2) return false;
  opt->command = argv[1];
  if (opt->command != "ingest" && opt->command != "check" &&
      opt->command != "list") {
    smt::log::error("unknown command", {{"command", opt->command}});
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        smt::log::error("option requires an argument", {{"option", flag}});
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--sweep") {
      if ((v = next("--sweep")) == nullptr) return false;
      opt->sweep_dir = v;
    } else if (a == "--history") {
      if ((v = next("--history")) == nullptr) return false;
      opt->history_dir = v;
    } else if (a == "--run-id") {
      if ((v = next("--run-id")) == nullptr) return false;
      opt->run_id = v;
    } else if (a == "--max-runs") {
      if ((v = next("--max-runs")) == nullptr) return false;
      opt->max_runs = std::atoi(v);
    } else if (a == "--last") {
      if ((v = next("--last")) == nullptr) return false;
      opt->last = std::atoi(v);
    } else if (a == "--sigma") {
      if ((v = next("--sigma")) == nullptr) return false;
      opt->sigma = std::atof(v);
    } else if (a == "--rel-floor") {
      if ((v = next("--rel-floor")) == nullptr) return false;
      opt->rel_floor = std::atof(v);
    } else if (a == "--abs-floor") {
      if ((v = next("--abs-floor")) == nullptr) return false;
      opt->abs_floor = std::atof(v);
    } else if (!a.empty() && a[0] == '-') {
      smt::log::error("unknown option", {{"option", a}});
      return false;
    } else if (opt->command == "list") {
      opt->names.push_back(a);
    } else {
      smt::log::error("unexpected argument", {{"argument", a}});
      return false;
    }
  }
  if (opt->command != "list" && opt->sweep_dir.empty()) {
    smt::log::error("--sweep is required", {{"command", opt->command}});
    return false;
  }
  if (opt->max_runs < 1 || opt->last < 1) {
    smt::log::error("--max-runs/--last must be positive");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return usage();
  if (opt.command == "ingest") return cmd_ingest(opt);
  if (opt.command == "check") return cmd_check(opt);
  return cmd_list(opt);
}
