// The invariants of a RunReport document (core/run_report.h), checked on
// its parsed JSON. The writer and this validator are the two halves of
// the report format: tools/check_reports runs it over artifact
// directories, and the unit tests run it over the JSON they just built.
//
// Checked, in order (the first violation is the finding):
//   * schema "smt-run-report/1"; workload/cycles/verified/config/cpus/
//     totals present, cycles a number; one cpus entry per logical CPU,
//     each with every named counter and the cycle-breakdown fields;
//   * `timeseries` (optional): positive window_cycles; windows contiguous
//     and increasing; per-event window deltas sum exactly to each CPU's
//     end-of-run counter;
//   * `profile` (optional): per-PC retired instrs/uops, L1/L2 misses and
//     the four counter-backed stall reasons sum exactly to the counters;
//     per-PC port uops sum to port_occupancy; the two contexts' combined
//     occupancy of each port stays within its per-cycle cap x cycles;
//   * `interference` (optional): per counter-backed reason, self +
//     sibling equals the stall counter exactly; each side's port-conflict
//     decomposition (ports + issue_bandwidth) sums to its port_conflict
//     reason total; no port's blame exceeds the run's cycle count.
#pragma once

#include <optional>
#include <string>

#include "common/json.h"

namespace smt::core {

/// The first invariant `report` violates, as a one-line finding naming
/// the offending field (no file prefix); std::nullopt when it is a
/// well-formed run report.
std::optional<std::string> check_run_report(const JsonValue& report);

}  // namespace smt::core
