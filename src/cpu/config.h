// Core configuration: widths, queue sizes and latencies of the simulated
// 2-way SMT Netburst-class processor.
//
// Defaults approximate the 2.8 GHz Hyper-Threading Xeon of the paper:
// 3 uops/cycle from the trace cache, up to 6 issued, 3 retired; statically
// partitioned uop queue / ROB / load queue / store buffer (each logical
// processor may use at most half while both are active, the full structure
// once the sibling halts); double-speed ALUs with logical/shift ops
// restricted to ALU0; unpipelined dividers; pause/halt/IPI costs as
// described in paper §3.1.
#pragma once

#include "common/types.h"
#include "isa/opcode.h"

namespace smt::cpu {

struct CoreConfig {
  // Pipeline widths.
  int fetch_width = 3;
  int dispatch_width = 3;
  int retire_width = 3;
  int issue_width = 6;

  // Statically partitioned structures (totals; halved per thread in SMT).
  int uop_queue_size = 24;
  int rob_size = 126;
  int load_queue_size = 48;
  int store_buffer_size = 24;

  // Netburst splits the buffering structures statically between active
  // contexts. Setting this to false models an idealized dynamically-shared
  // design (each context may fill any structure completely) — the
  // counterfactual the paper's §2 discussion of [Tuck & Tullsen]
  // contrasts against; the `.dynpart` registry jobs run it (smt_figures
  // --figure partitioning).
  bool static_partitioning = true;

  // Scheduler lookahead: how many unissued uops past the ROB head are
  // considered for issue each cycle (~the 46 scheduler entries of
  // Netburst). Halved per context when both are active, like the other
  // buffering structures — the partitioning that caps per-thread ILP
  // extraction in SMT mode.
  int sched_window = 48;

  // Per-cycle execution-unit capacities. The double-speed ALUs accept two
  // simple uops per cycle each; only ALU0 executes logical/shift uops and
  // branches (paper §5.3 / Figure 6).
  int alu0_per_cycle = 2;
  int alu1_per_cycle = 2;

  // Result latencies (cycles). Latency 0 = double-pumped: a dependent
  // simple-ALU uop can issue in the same cycle (staggered add).
  Cycle lat_simple_alu = 0;
  Cycle lat_shift = 4;
  Cycle lat_imul = 14;
  Cycle lat_idiv = 56;
  Cycle lat_fadd = 5;
  Cycle lat_fmul = 7;
  Cycle lat_fdiv = 38;
  Cycle lat_fmov = 6;
  Cycle lat_branch = 1;

  // The divide units are not pipelined: a second divide of the same kind
  // cannot start until the previous one finishes.
  bool fdiv_unpipelined = true;
  bool idiv_unpipelined = true;

  // Store commit: rate at which retired stores drain from the store buffer
  // into L1 (one per cycle through the single store port, shared between
  // the logical processors).
  // (implicit: 1/cycle via a global commit-port timestamp)

  // pause: de-pipelines the spin loop by stalling fetch of its context.
  Cycle pause_fetch_stall = 10;

  // halt/IPI transition costs (paper: "transitions are expensive in terms
  // of processor cycles").
  Cycle halt_enter_cost = 1500;
  Cycle halt_wake_cost = 2000;

  // Memory-order violation (machine clear) on spin-wait exit: penalty and
  // the detection window for "this thread recently loaded a different
  // value of a word the sibling just stored".
  Cycle machine_clear_penalty = 60;
  Cycle machine_clear_window = 60;

  // Event-skip fast-forward: when a whole cycle passes with no activity,
  // jump straight to the next scheduled event, bulk-accumulating the
  // per-cycle counters. Turning this off forces single-cycle stepping;
  // all performance counters must be bit-identical either way (the
  // equivalence is regression-tested), so this exists for those tests and
  // for debugging, not as a tuning knob.
  bool event_skip = true;

  // Abort the simulation if no context retires anything for this long
  // (deadlocked simulated synchronization).
  Cycle watchdog_cycles = 20'000'000;

  /// Result latency for a non-memory opcode under this config.
  Cycle latency(isa::Opcode op) const;
};

}  // namespace smt::cpu
