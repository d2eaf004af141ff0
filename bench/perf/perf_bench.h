// One workload's measurement: closed-loop passes over its jobs in this
// process, `smt_sweep` cold/warm rounds in child processes, correctness
// gates on every run, and (traced runs) per-layer spans, the observer
// ablation and the memory-hierarchy replay.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "perf_workloads.h"

namespace smt::perf {

struct BenchOptions {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 0;
  /// Measuring budget: no pass or sweep round starts that is predicted to
  /// end after this many seconds (at least one of each runs).
  double seconds = 30;
  /// Per-layer run instead of the end-to-end one.
  bool trace = false;
  /// Smoke check: one pass and one cold + one warm sweep, gates only.
  bool quick = false;
  std::string sweep_bin;    // the smt_sweep executable
  std::string history_dir;  // bench/history
  std::string work_dir;     // scratch space, removed before returning
  std::string trace_path;   // Chrome trace output (traced runs)
};

struct BenchResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric name -> the run's value: end-to-end metrics (host times scaled
  /// to the reference host), or per-layer metrics in a traced run.
  std::map<std::string, double> values;
  /// Metric name -> the repetitions behind an end-to-end value: one per
  /// pass, per set-up or per sweep.
  std::map<std::string, std::vector<double>> samples;
  /// Traced runs: self seconds per layer over the whole run.
  std::map<std::string, double> layer_self_s;
  /// Median host speed relative to the reference host the end-to-end
  /// times are scaled to (see the host-speed probe in perf_bench.cc).
  double host_speed = 0;
};

BenchResult run_bench(const BenchOptions& opt);

/// Parses the JSON file at `path`; nullopt when unreadable or malformed.
std::optional<JsonValue> read_json(const std::string& path);

/// Runs `argv` (argv[0] is the executable path) to completion, with its
/// standard output appended to `stdout_path`. Returns the exit status, or
/// -1 when it could not start or was killed.
int run_process(const std::vector<std::string>& argv,
                const std::string& stdout_path);

}  // namespace smt::perf
