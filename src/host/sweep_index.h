// The sweep index: the merged record smt_sweep writes as
// <out>/sweep_index.json, and the one description of its format. This
// module is its only writer and its only reader — smt_sweep writes it,
// check_reports --index cross-checks a metrics snapshot against it, and
// smt_history ingests from it.
//
// The document is one JSON object without whitespace: "schema":
// "smt-sweep-index/1", SweepIndex's workers and job_timeout_ms, "total"
// (the number of jobs) and "failed" (jobs whose outcome is not "ok"),
// then "jobs": one object per manifest entry, in manifest order, whose
// members are IndexEntry's fields in declaration order. The writer
// derives total and failed from the entries; the parser checks them
// against the entries, along with every field's type and attempts == 0
// for the lint-failed jobs, which never started. Indexes written before
// the result cache lack key and cached; the parser reads them as "" and
// false.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace smt::host {

/// The index's file name inside a sweep's output directory.
inline constexpr char kSweepIndexFile[] = "sweep_index.json";

/// One job's entry in the index.
struct IndexEntry {
  std::string name;            // experiment name
  std::string outcome = "ok";  // "ok"; a core::RunStatus failure name
                               // (deadlock, cycle_budget_exceeded,
                               // verify_failed, race_detected); "timeout"
                               // (the watchdog killed the job);
                               // "lint_failed" (withheld by --lint);
                               // "cache_verify_failed" (a hit diverged
                               // from its re-simulation); or
                               // "report_write_failed"
  std::string message;         // failure detail; "" when ok
  std::string key;             // host::ResultKey hash; "" if not computed
  bool cached = false;         // artifacts came from the result cache,
                               // not a simulation
  int attempts = 0;            // 1 for every job the pool ran; 0 if the
                               // job never started
  double wall_ms = 0.0;        // host wall-clock of the job's run
  Cycle cycles = 0;            // simulated cycles
  bool verified = false;       // the workload's result check passed
  std::string report;          // report path relative to the output
                               // directory; "" if the job never started
  std::string dump;            // smt-core-dump/1 path, likewise; "" unless
                               // the job died with one

  bool ok() const { return outcome == "ok"; }
};

struct SweepIndex {
  int workers = 0;             // requested pool workers (--jobs)
  int64_t job_timeout_ms = 0;  // per-job watchdog; 0 = off
  std::vector<IndexEntry> jobs;

  /// Number of jobs whose outcome is not "ok".
  int failed() const;

  /// The index document's bytes.
  std::string to_json() const;
};

/// Parses an index document into `*out`. Returns the first finding as a
/// one-line message naming the offending field (`*out` is then
/// unspecified); std::nullopt when `text` is a well-formed index.
std::optional<std::string> parse_sweep_index(std::string_view text,
                                             SweepIndex* out);

}  // namespace smt::host
