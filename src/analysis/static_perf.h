// Static CPI lower-bound advisor: per-block port pressure and dependence
// critical paths, composed over the loop structure recovered by
// analysis/absint.h, into a whole-program lower bound on a logical CPU's
// active-cycles-per-instruction — from the program text alone, before a
// single cycle is simulated.
//
// Soundness contract (cross-validated against the cycle-accurate core on
// the default manifest's reports in tests/static_perf_registry_test.cc):
// for any run of the program that COMPLETES, the reported cpi_lb never
// exceeds the measured per-CPU CPI (perfmon::CpuCycleBreakdown::cpi,
// active cycles per retired instruction). The bound is NOT valid against
// a truncated (budget-exceeded) run, nor against the partial context of
// an until_first_done pair (stopped when its sibling exits): a prefix of
// the execution can have a different block mix than any whole
// execution.
//
// Two regimes:
//   * exact — control flow is a straight nest of resolved counted loops
//     (LoopInfo::exact): every block's execution count is known, so the
//     bound is max over hard resource constraints of the whole program
//     (port-capacity sums, dispatch/retire bandwidth, unpipelined-divider
//     occupancy, single-instruction loop-carried dependence chains),
//     divided by the static instruction count. The port and divider
//     families read the core's own port model (cpu/ports.h): each unit
//     class's candidate ports, the per-port caps and the divider
//     occupancy, so the bound and the simulator cannot disagree on them.
//   * fallback — any path is a concatenation of whole blocks (plus one
//     exit-terminated prefix), so CPI over any path is at least the
//     minimum per-instruction cost density over all reachable blocks and
//     exit prefixes; the retire-width family makes this at least 1/3.
#pragma once

#include <array>
#include <string>

#include "cpu/config.h"
#include "cpu/ports.h"
#include "isa/program.h"

namespace smt::analysis {

struct StaticPerf {
  /// Loop structure fully resolved: cycles_lb / instrs / uops / port_uops
  /// describe the whole execution exactly.
  bool exact = false;
  /// Lower bound on active cycles (exact mode only; 0 otherwise).
  double cycles_lb = 0.0;
  /// Static retired-instruction count of one complete execution (exact
  /// mode only). Counts every instruction on the path, so it is >= the
  /// core's instr_retired — which keeps cpi_lb conservative.
  uint64_t instrs = 0;
  /// Static uop count (xchg is two uops; exact mode excludes xchg).
  uint64_t uops = 0;
  /// Lower bound on active CPI of any complete run. Always valid; > 0
  /// for any non-empty program (retire width caps instructions/cycle).
  double cpi_lb = 0.0;
  /// The constraint family that set the bound (e.g. "fp port",
  /// "retire width", "fdiv unit", "loop-carried fadd chain").
  std::string binding;
  /// Freq-weighted uop count per issue port (exact mode only). A uop with
  /// several candidate ports counts at its first, the scheduler's
  /// preferred one (ALU1 for simple-ALU uops; cpu/ports.h).
  std::array<double, cpu::kNumIssuePorts> port_uops{};
};

/// Computes the static bound for one logical CPU's program under `cfg`.
/// Never aborts: malformed programs degrade to the fallback regime (an
/// empty program reports cpi_lb == 0).
StaticPerf static_cpi_bound(const isa::Program& p,
                            const cpu::CoreConfig& cfg);

}  // namespace smt::analysis
