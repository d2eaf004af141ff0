// SMT interference attribution: who made each stall cycle happen.
//
// The existing counters say *that* a context stalled (rob/load-queue/
// store-buffer/uop-queue cycles) and the PC profiler says *where*; this
// profiler says *who* — for every stall cycle it records whether the
// stall was self-inflicted or manufactured by the sibling context, and
// which shared resource carried the blame:
//
//   - allocation/frontend stalls (rob, load_queue, store_buffer,
//     uop_queue_full): sibling-blamed when the uop would have fit into
//     the full structure and only the static SMT half-partition made it
//     stall (the Tuck&Tullsen-style partitioning cost);
//   - port conflicts: the contended IssuePort, sibling-blamed when the
//     sibling issued onto the exhausted port that cycle; conflicts with
//     no exhausted port are raw issue-bandwidth losses ("issue_width");
//   - divider busy: sibling-blamed when the unpipelined divider is
//     mid-operation on a sibling divide;
//   - L2 capacity: demand L2 misses on lines the sibling's fills evicted
//     (tracked by mem::CacheHierarchy, copied in by the Machine).
//
// Hard invariant (checked by core::check_run_report and
// tests/interference_test.cc): per reason, self + sibling cycles equal
// the corresponding stall counter bit-exactly, under both event_skip
// modes — on_block is raised by cpu::Core::record_cycle_counters at the
// exact points the counters are bumped. Like the PC profiler, attaching
// never perturbs any counter and costs nothing when detached.
#pragma once

#include <array>
#include <cstdint>

#include "cpu/observer.h"

namespace smt::profile {

/// Per-CPU interference ledger. `port_self`/`port_sibling` decompose the
/// kPortConflict cycles by contended port; index kNumIssuePorts is the
/// "no specific port — raw issue bandwidth" bucket.
struct CpuInterference {
  static constexpr int kIssueBandwidth = cpu::kNumIssuePorts;

  std::array<uint64_t, cpu::kNumBlockReasons> self{};
  std::array<uint64_t, cpu::kNumBlockReasons> sibling{};
  std::array<uint64_t, cpu::kNumIssuePorts + 1> port_self{};
  std::array<uint64_t, cpu::kNumIssuePorts + 1> port_sibling{};
  uint64_t l2_sibling_evictions = 0;

  uint64_t total(cpu::BlockReason r) const {
    return self[static_cast<int>(r)] + sibling[static_cast<int>(r)];
  }
  uint64_t sibling_total() const {
    uint64_t sum = 0;
    for (const uint64_t v : sibling) sum += v;
    return sum;
  }
};

class InterferenceProfiler final : public cpu::PipelineObserver {
 public:
  bool wants_issue_blocks() const override { return true; }
  void on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc, bool sibling,
                int port, Cycle cycles, Cycle now) override;

  const CpuInterference& stats(CpuId cpu) const { return stats_[idx(cpu)]; }

  /// Fills the L2 capacity-interference dimension from the hierarchy's
  /// eviction bookkeeping (assignment, so repeated finalization at the
  /// several stats-collection points stays idempotent).
  void set_l2_sibling_evictions(CpuId cpu, uint64_t misses) {
    stats_[idx(cpu)].l2_sibling_evictions = misses;
  }

  void reset() { stats_ = {}; }

 private:
  std::array<CpuInterference, kNumLogicalCpus> stats_{};
};

}  // namespace smt::profile
