// The benchmark history: one committed baseline per experiment under
// bench/history/, and the one description of its format. This module is
// its only writer and its only reader — smt_history ingests into it,
// checks sweeps against it and lists it, and smt_sweep reads each job's
// baseline cycles from it to order its pool's claims longest first.
//
// Each experiment has one file, `<dir>/BENCH_<experiment>.json`
// (experiment name through sanitize_artifact_key). It is one JSON
// object: "schema": "smt-bench-history/1", "experiment", and
// "trajectories", an array of {config_hash, report_schema, runs}. A
// trajectory is keyed by (config hash, report schema): the config hash
// is the FNV-1a digest of the canonicalized `config` section of the
// run's report (history_config_hash). Its runs are oldest first; each
// holds a run_id, the job's content key ("" for runs that predate the
// result cache) and its metrics: "cycles" plus the report's numeric
// totals as "totals.<name>". The run a check compares against, and the
// one a sweep's estimate comes from, is the latest run of the trajectory
// matching the job's config hash and report schema.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "core/machine.h"

namespace smt::host {

/// Where smt_history and smt_sweep look for the history by default,
/// relative to the working directory (the repository root).
inline constexpr char kHistoryDir[] = "bench/history";

/// The report schema of every run report, the second half of a
/// trajectory key.
inline constexpr char kHistoryReportSchema[] = "smt-run-report/1";

struct RunEntry {
  std::string run_id;
  std::string key;  // sweep content-address key; "" for pre-cache runs
  std::map<std::string, double> metrics;

  bool operator==(const RunEntry&) const = default;
};

struct Trajectory {
  std::string config_hash;
  std::string report_schema;
  std::vector<RunEntry> runs;  // oldest first

  bool operator==(const Trajectory&) const = default;
};

struct History {
  std::string experiment;
  std::vector<Trajectory> trajectories;

  bool operator==(const History&) const = default;
};

/// The trajectory config hash of a run report's `config` section.
std::string history_config_hash(const JsonValue& config);
/// The same hash for a machine config, before any run: equal to the
/// hash of the report a run on `cfg` writes.
std::string history_config_hash(const core::MachineConfig& cfg);

/// `<dir>/BENCH_<experiment>.json`.
std::filesystem::path history_file(const std::string& dir,
                                   const std::string& experiment);

/// Parses a history document into `*out`. Returns the first finding as a
/// one-line message (`*out` is then unspecified); std::nullopt when
/// `text` is a well-formed history. Any missing or mistyped part is a
/// finding: a corrupt history must never be read as a shorter one.
std::optional<std::string> parse_history(std::string_view text, History* out);

/// The history document's bytes.
std::string history_json(const History& h);

/// Reads one history file. std::nullopt (logged as an error) when it
/// cannot be read or is malformed.
std::optional<History> read_history(const std::filesystem::path& path);

/// Loads one experiment's history: an absent file is an empty history;
/// a malformed one, or one holding another experiment, is std::nullopt
/// (logged).
std::optional<History> load_history(const std::string& dir,
                                    const std::string& experiment);

/// Writes `h` to its experiment's file under `dir`; false (logged) when
/// it cannot be written.
bool save_history(const std::string& dir, const History& h);

/// The trajectory of `h` keyed (config_hash, report_schema), or nullptr.
const Trajectory* find_trajectory(const History& h,
                                  const std::string& config_hash,
                                  const std::string& report_schema);

/// The cycles of the run smt_history check would compare `experiment`
/// against at `config_hash`: the latest run of its trajectory. Never
/// fails: a missing file, trajectory or metric is std::nullopt, and so
/// is an unreadable or malformed file (logged as a warning).
std::optional<double> baseline_cycles(const std::string& dir,
                                      const std::string& experiment,
                                      const std::string& config_hash);

}  // namespace smt::host
