// Per-PC attribution profiler (the counter-driven-characterization lens).
//
// The paper's methodology attributes totals to causes: Table 1 maps the
// dynamic mix to execution subunits, and §5.2 ties slowdowns to store-buffer
// stalls and L2 read misses. This profiler goes one step finer and attributes
// those quantities to *program counters*: per logical CPU and per PC it
// accumulates retired instructions/uops, issue-port occupancy (which uops
// went down ALU0 vs ALU1 vs the shared FP port...), stall cycles by blocking
// reason, and demand L1/L2 misses. Joined with `isa::disasm` it yields
// annotated disassembly — e.g. the ALU0-only mask instructions of the
// blocked-layout MM light up with alu0-port traffic and port-conflict stalls.
//
// Attribution semantics (DESIGN.md §9): a "stalled PC" is the PC of the
// *oldest blocked uop* for that reason — the front-of-queue uop for
// allocation stalls (ROB/load-queue/store-buffer), the next fetch PC for
// uop-queue-full, and the oldest dep-ready unissued uop for issue-side
// blocks (port conflict / divider busy). Reasons are not mutually exclusive
// within a cycle: one context can be allocation-stalled and issue-blocked in
// the same cycle, so stall-cycle sums across reasons may exceed run cycles.
//
// Guarantees mirror the sampler/tracer contracts: attaching the profiler
// never changes any perf counter (hooks are read-only observers), and all
// attributions are exact under event-skip fast-forward (regression-tested
// bit-identical against single-cycle stepping in tests/pc_profiler_test.cc).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cpu/observer.h"
#include "isa/program.h"

namespace smt::profile {

/// Everything attributed to one (cpu, pc) pair.
struct PcStats {
  uint64_t retired_instrs = 0;  // kInstrRetired share (1 per instruction)
  uint64_t retired_uops = 0;    // kUopsRetired share (xchg counts 2)
  uint64_t l1_misses = 0;       // demand accesses not served by L1
  uint64_t l2_misses = 0;       // demand accesses missing L2 too
  std::array<uint64_t, cpu::kNumBlockReasons> stalls{};   // cycles, by reason
  std::array<uint64_t, cpu::kNumIssuePorts> port_uops{};  // issued, by port

  bool operator==(const PcStats&) const = default;
};

class PcProfiler final : public cpu::PipelineObserver {
 public:
  bool wants_issue_blocks() const override { return true; }
  void on_issue(CpuId cpu, const cpu::DynUop& uop, int port, Cycle done,
                Cycle now) override;
  void on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc, bool sibling,
                int port, Cycle cycles, Cycle now) override;
  void on_demand_miss(CpuId cpu, uint32_t pc, bool l2_miss,
                      Cycle now) override;
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override;

  /// Remember the program loaded on `cpu` so reports can carry per-PC
  /// disassembly and stay self-contained.
  void set_program(CpuId cpu, const isa::Program& prog);

  /// The PCs of `cpu` with any nonzero stat, with their stats, in PC
  /// order: every PC some hook attributed to, since each hook adds a
  /// nonzero amount.
  std::vector<std::pair<uint32_t, PcStats>> pcs(CpuId cpu) const;
  /// Whole-run uop count per issue port for this context.
  const std::array<uint64_t, cpu::kNumIssuePorts>& port_totals(
      CpuId cpu) const {
    return port_totals_[idx(cpu)];
  }
  /// Disassembly for `pc` as loaded via set_program ("" if unknown).
  const std::string& disasm(CpuId cpu, uint32_t pc) const;

  void reset();

 private:
  /// The stats of (cpu, pc), growing the table for a PC past its end.
  PcStats& at(CpuId cpu, uint32_t pc) {
    std::vector<PcStats>& v = pcs_[idx(cpu)];
    if (pc >= v.size()) v.resize(pc + 1);
    return v[pc];
  }

  // Indexed by PC (PCs are dense program indices); sized by set_program.
  std::array<std::vector<PcStats>, kNumLogicalCpus> pcs_{};
  std::array<std::array<uint64_t, cpu::kNumIssuePorts>, kNumLogicalCpus>
      port_totals_{};
  std::array<std::vector<std::string>, kNumLogicalCpus> disasm_{};
};

}  // namespace smt::profile
