// smt_history: content-addressed benchmark-history store and exact
// cross-run regression gate — the repo's durable record of every
// experiment's deterministic counters.
//
//   $ smt_history ingest --sweep DIR [--history DIR] [--run-id ID]
//   $ smt_history check  --sweep DIR [--history DIR]
//   $ smt_history list   [--history DIR] [experiment names...]
//
// `ingest` reads a sweep's artifacts (`<dir>/sweep_index.json`, read
// through host::parse_sweep_index — format in src/host/sweep_index.h —
// plus every ok job's run report, validated by core::check_run_report)
// and makes each ok job's run the baseline of its experiment: it rewrites
// `<history>/BENCH_<experiment>.json` (smt-bench-history/1, read and
// written only through host/bench_history.h, which describes the format)
// to hold one trajectory with one run, keyed by the report's config hash
// and schema. A run records its id, its job's content key (when present,
// so the entry can be traced back to its smt_sweep --cache object) and
// its metrics: cycles plus the report's numeric `totals`. The default
// run id is a digest of the index's *deterministic* job fields (name,
// content key, outcome, cycles, verified, report path), so two sweeps
// of the same work at the same model get the same id no matter how long
// they took; indexes whose jobs predate content keys fall back to the
// digest of the raw index bytes. Ingest leaves a file untouched when it
// already holds exactly the run it would write, so re-ingesting a re-run
// (or a fully cache-hit sweep) of a stored sweep is a no-op.
//
// `check` compares the same sweep against the store. The simulator is
// deterministic, so the gate is exact: each ok job's metrics must equal
// (==) those of the latest run in the trajectory matching its config
// hash and report schema. Every difference is a finding — a changed
// value, a metric present on one side only, a history file with no
// trajectory for the job's key, a job with a history file whose outcome
// is not ok, or an ok job with no history file at all (a deleted or
// never-ingested baseline must not pass the gate). A finding is a model
// change, a bug, or a new experiment whose numbers should be ingested as
// its baseline. Only a failed job with no history file is passed over
// (the sweep's own exit status reports it).
//
// `list` prints every stored trajectory, read through the same loader.
//
// Exit status: 0 ok; 1 finding(s) (check only); 2 usage error;
// 3 I/O or parse error (a malformed index, report or history file is
// logged with its finding).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "core/report_check.h"
#include "host/bench_history.h"
#include "host/sweep_index.h"

namespace fs = std::filesystem;

namespace {

using smt::host::find_trajectory;
using smt::host::History;
using smt::host::history_file;
using smt::host::load_history;
using smt::host::read_history;
using smt::host::save_history;
using smt::host::Trajectory;

constexpr int kExitFinding = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

struct Options {
  std::string command;
  std::string sweep_dir;
  std::string history_dir = smt::host::kHistoryDir;
  std::string run_id;              // ingest; default = stable index digest
  std::vector<std::string> names;  // list: experiment filter
};

int usage() {
  std::fprintf(
      stderr,
      "usage: smt_history ingest --sweep DIR [--history DIR] [--run-id ID]\n"
      "       smt_history check  --sweep DIR [--history DIR]\n"
      "       smt_history list   [--history DIR] [experiment names...]\n");
  return kExitUsage;
}

/// One job of the sweep being ingested/checked: its index entry plus, for
/// an ok job, its report's trajectory key and metric set.
struct SweepRun {
  smt::host::IndexEntry job;
  std::string config_hash;
  std::string report_schema;
  std::map<std::string, double> metrics;
};

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
/// malformed artifact. Jobs that did not end ok are returned without
/// metrics. `default_run_id` receives the sweep's stable id (see
/// stable_run_id), or the raw index bytes' digest for pre-key indexes.
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
    SweepRun r;
    r.job = job;
    if (job.ok()) {
      bool unreadable = false;
      const auto rv = smt::read_valid_json(
          (fs::path(dir) / job.report).string(), "malformed run report",
          smt::core::check_run_report, &unreadable);
      if (!rv.has_value()) return std::nullopt;
      r.report_schema = rv->find("schema")->string;
      r.config_hash = smt::host::history_config_hash(*rv->find("config"));
      r.metrics["cycles"] = rv->find("cycles")->number;
      for (const auto& [k, tv] : rv->find("totals")->object) {
        if (tv.is_number()) r.metrics["totals." + k] = tv.number;
      }
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
    if (!r.job.ok()) continue;  // partial numbers never ingest
    const auto stored = load_history(opt.history_dir, r.job.name);
    if (!stored.has_value()) return kExitIo;
    const History baseline{
        r.job.name,
        {{r.config_hash, r.report_schema, {{run_id, r.job.key, r.metrics}}}}};
    if (*stored == baseline) {
      ++skipped;
      smt::log::debug("run already ingested", {{"experiment", r.job.name},
                                               {"run_id", run_id}});
      continue;
    }
    if (!save_history(opt.history_dir, baseline)) return kExitIo;
    ++ingested;
  }
  std::printf("ingested %d run(s), %d already present (run_id %s) into %s\n",
              ingested, skipped, run_id.c_str(), opt.history_dir.c_str());
  return 0;
}

/// `metrics[metric]` printed exactly, or "absent".
std::string shown(const std::map<std::string, double>& metrics,
                  const std::string& metric) {
  const auto it = metrics.find(metric);
  if (it == metrics.end()) return "absent";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", it->second);
  return buf;
}

/// Compares one ok job's metrics with its baseline run's, printing each
/// metric that differs or is present on one side only; returns how many.
int compare_metrics(const std::string& experiment,
                    const std::map<std::string, double>& baseline,
                    const std::map<std::string, double>& fresh) {
  std::map<std::string, double> names = baseline;
  names.insert(fresh.begin(), fresh.end());
  int findings = 0;
  for (const auto& [metric, unused] : names) {
    const auto b = baseline.find(metric);
    const auto n = fresh.find(metric);
    if (b != baseline.end() && n != fresh.end() && b->second == n->second) {
      continue;
    }
    std::printf("MISMATCH %-24s %-22s baseline=%s new=%s\n",
                experiment.c_str(), metric.c_str(),
                shown(baseline, metric).c_str(), shown(fresh, metric).c_str());
    ++findings;
  }
  return findings;
}

int cmd_check(const Options& opt) {
  std::string default_run_id;
  const auto runs = load_sweep(opt.sweep_dir, &default_run_id);
  if (!runs.has_value()) return kExitIo;

  int findings = 0;
  int matched = 0;
  int unbaselined = 0;  // failed jobs with no history file
  for (const SweepRun& r : *runs) {
    std::error_code ec;
    if (!fs::exists(history_file(opt.history_dir, r.job.name), ec)) {
      if (r.job.ok()) {
        std::printf("MISMATCH %-24s no history file (ingest a baseline)\n",
                    r.job.name.c_str());
        ++findings;
      } else {
        ++unbaselined;
      }
      continue;
    }
    const auto h = load_history(opt.history_dir, r.job.name);
    if (!h.has_value()) return kExitIo;
    if (!r.job.ok()) {
      std::printf("MISMATCH %-24s outcome %s, not ok\n", r.job.name.c_str(),
                  r.job.outcome.c_str());
      ++findings;
      continue;
    }
    const Trajectory* t = find_trajectory(*h, r.config_hash, r.report_schema);
    if (t == nullptr || t->runs.empty()) {
      std::printf("MISMATCH %-24s no baseline for config_hash %s, "
                  "report_schema %s\n",
                  r.job.name.c_str(), r.config_hash.c_str(),
                  r.report_schema.c_str());
      ++findings;
      continue;
    }
    const int n = compare_metrics(r.job.name, t->runs.back().metrics,
                                  r.metrics);
    findings += n;
    if (n == 0) ++matched;
  }
  if (findings > 0) {
    std::printf("%d finding(s); %d job(s) match their baseline, %d failed "
                "job(s) without one\n",
                findings, matched, unbaselined);
    return kExitFinding;
  }
  std::printf("OK: %d job(s) match their baseline exactly, %d failed job(s) "
              "without one\n",
              matched, unbaselined);
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
    const auto h = read_history(path);
    if (!h.has_value()) return kExitIo;
    if (!opt.names.empty() &&
        std::find(opt.names.begin(), opt.names.end(), h->experiment) ==
            opt.names.end()) {
      continue;
    }
    for (const Trajectory& t : h->trajectories) {
      double last_cycles = 0.0;
      if (!t.runs.empty()) {
        const auto it = t.runs.back().metrics.find("cycles");
        if (it != t.runs.back().metrics.end()) last_cycles = it->second;
      }
      std::printf("%-28s %s %-16s %3zu run(s)  last cycles=%.0f\n",
                  h->experiment.c_str(), t.config_hash.c_str(),
                  t.report_schema.c_str(), t.runs.size(), last_cycles);
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
