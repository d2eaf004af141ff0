// RunReport: a structured, machine-readable artifact describing one
// simulated run — the RunStats, a top-down per-CPU cycle-accounting
// breakdown derived from them, and the machine configuration the run
// executed on. Every smt_sweep job writes one of these as JSON, so
// results are comparable across configs and revisions without scraping
// stdout tables (tools/smt_figures prints every paper figure and table
// from them).
//
// JSON schema. This comment is its one description; its invariants live
// in core/report_check.h. Every report carries the same schema string;
// the three trailing sections are optional, each present exactly when
// its instrument was attached to the run:
//   {
//     "schema": "smt-run-report/1",
//     "workload": "...", "cycles": N, "verified": true,
//     "config": { "core": {...}, "mem": {...} },
//     "cpus": [ { "cpu": 0,
//                 "events": { "<event name>": N, ... },   // all counters
//                 "breakdown": { "total": N, "active": N, ... } }, ... ],
//     "totals": { "instr_retired": N, "uops_retired": N, "ipc": X },
//
//     "timeseries": {                 // telemetry (trace::Telemetry):
//       "window_cycles": W,           // windowed counter deltas
//       "windows": [ { "begin": B, "end": E,
//                      "cpus": [ { "cpu": 0,
//                                  "events": {  // nonzero deltas only
//                                    "<event name>": N, ... } }, ... ] },
//                    ... ] },         // windows tile [0, cycles) exactly;
//                                     // per-event sums equal the totals
//     "profile": {                    // per-PC profiler (profile::PcProfiler)
//       "hotspots": [ { "cpu": 0,
//                       "pcs": [ { "pc": P, "disasm": "...",
//                                  "retired_instrs": N, "retired_uops": N,
//                                  "l1_misses": N, "l2_misses": N,
//                                  "stalls": { "<block reason>": N, ... },
//                                  "ports": { "<issue port>": N, ... } },
//                                ... ] }, ... ],
//       "port_occupancy": [ { "cpu": 0, "ports": {...} }, ... ],
//       "port_caps_per_cycle": { "<issue port>": N, ... } },
//     "interference": [               // interference profiler
//       { "cpu": 0,                   // (profile::InterferenceProfiler)
//         "self": { "<block reason>": N, ... },      // stall cycles by
//         "sibling": { "<block reason>": N, ... },   // who caused them
//         "port_conflict": { "self": { "<issue port>": N, ...,
//                                      "issue_bandwidth": N },
//                            "sibling": {...} },
//         "l2_sibling_evictions": N }, ... ]
//   }
#pragma once

#include <string>

#include "core/runner.h"
#include "perfmon/cycle_accounting.h"

namespace smt::core {

struct RunReport {
  RunStats stats;
  perfmon::CycleAccounting accounting;

  /// Builds the report (derives the cycle accounting) from finished stats.
  static RunReport from(const RunStats& stats);

  /// Serializes the full report as a single JSON object.
  std::string to_json() const;

  /// Human-readable summary: header line plus the cycle-accounting table.
  std::string to_table() const;

  /// Writes to_json() to `path`, creating missing parent directories;
  /// logs to stderr and returns false on I/O failure.
  bool write_json_file(const std::string& path) const;
};

/// Convenience for callers that drove a Machine by hand (examples, ad-hoc
/// experiments): snapshots its counters and config into a report.
RunReport report_from_machine(const Machine& m, std::string workload,
                              bool verified);

/// Canonical JSON of a MachineConfig — {"core":{...},"mem":{...}}, the
/// byte-identical twin of the report's "config" section (both render
/// through the same writers). This is the config half of a
/// content-addressed result key (host::ResultKey) and the byte string
/// smt_history's config hashes digest, so its field set and order are
/// part of the on-disk cache/history schema.
std::string machine_config_json(const MachineConfig& cfg);

}  // namespace smt::core
