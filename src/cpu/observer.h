// The observer bus of cpu::Core: the dynamic-uop record and the one hook
// interface every instrument attaches through.
//
// The core keeps one subscriber list per hook (filled by Core::add_observer
// from hooks_of<T>(), the hooks an observer's class overrides) and raises
// each hook over its own list at a fixed point of its pipeline, so an
// observer costs nothing at the hooks it leaves at the default: the
// Pin-analog mix profiler, the per-PC and interference profilers, the race
// detector, the telemetry timeline, the pipeview (Kanata) recorder and the
// flight recorder are all clients. The windowed CounterSampler is
// deliberately not: it is a clock that reshapes the core's event-skip
// accumulation, not an event sink (Core::set_sampler).
//
// Contract for every client: observers are pure. They only read what a
// hook hands them (and, at most, the core's read-only snapshots), so
// attaching any set of them never perturbs a counter, and every hook
// replays bit-identically under event-skip fast-forward (on_block is raised
// from record_cycle_counters with the frozen per-thread blocking state;
// fetch, issue, retire, guest accesses and IPIs only happen in stepped
// cycles). Every hook defaults to a no-op and carries the current cycle.
//
// Header-only and dependent only on common/, isa/ and the port model
// (cpu/ports.h, which defines IssuePort), so instrument libraries
// (smt_trace, smt_profile, smt_analysis) can implement the interface
// without linking the core.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/types.h"
#include "cpu/ports.h"
#include "isa/opcode.h"
#include "isa/registers.h"

namespace smt::cpu {

/// One dynamic uop flowing through the backend.
struct DynUop {
  // Monotonic per-core id, assigned at fetch in program order across both
  // contexts (deterministic: the counter advances whether or not any
  // observer is attached). Keys the pipeline-lifetime trace.
  uint64_t uid = 0;
  uint32_t pc = 0;
  isa::Opcode op = isa::Opcode::kNop;
  isa::UnitClass unit = isa::UnitClass::kNone;
  isa::RegId dst = isa::kNoReg;
  isa::RegId dep_regs[4];  // register sources (incl. address regs)
  int ndep_regs = 0;
  Addr addr = 0;
  bool is_load = false;     // holds a load-queue entry
  bool is_store = false;    // holds a store-buffer entry
  bool is_prefetch = false;
  bool prefetch_to_l1 = false;
  bool is_branch = false;
};

/// Why the backend could not make forward progress on a uop this cycle.
/// The first four mirror the allocator/frontend stall counters; the last
/// two are issue-stage conditions that have no per-CPU counter but are
/// attributable per PC (the ALU0 serialization the paper's §5.3 reasons
/// about shows up as kPortConflict on the mask instructions).
enum class BlockReason : uint8_t {
  kStoreBuffer,
  kRob,
  kLoadQueue,
  kUopQueueFull,
  kPortConflict,  // ready to issue, but the port (or issue slots) were taken
  kDividerBusy,   // ready to issue, but the unpipelined divider is occupied
};
inline constexpr int kNumBlockReasons = 6;

/// Kind of a guest memory access as seen by on_guest_access (prefetches
/// are not reported — they have no architectural effect).
enum class GuestAccess : uint8_t {
  kLoad,   // load / fload
  kStore,  // store / fstore
  kXchg,   // atomic exchange (reads and writes the word)
};

inline const char* name(BlockReason r) {
  switch (r) {
    case BlockReason::kStoreBuffer:  return "store_buffer";
    case BlockReason::kRob:          return "rob";
    case BlockReason::kLoadQueue:    return "load_queue";
    case BlockReason::kUopQueueFull: return "uop_queue_full";
    case BlockReason::kPortConflict: return "port_conflict";
    case BlockReason::kDividerBusy:  return "divider_busy";
  }
  return "?";
}

inline const char* name(GuestAccess k) {
  switch (k) {
    case GuestAccess::kLoad:  return "load";
    case GuestAccess::kStore: return "store";
    case GuestAccess::kXchg:  return "xchg";
  }
  return "?";
}

/// A client of the core's observer bus. Override only the hooks you
/// consume, and make the class final: the core then raises only those
/// hooks on it (hooks_of). `now` is always the core's current cycle.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;

  /// Read once, by Core::add_observer. True makes the core run its
  /// per-cycle issue-block scan, so on_block also reports the issue-stage
  /// reasons (kPortConflict, kDividerBusy). Only the attribution profilers
  /// opt in; everyone else saves the scan.
  virtual bool wants_issue_blocks() const { return false; }

  // --- uop lifetime ------------------------------------------------------
  /// `uop` was fetched (executed functionally) into the uop queue.
  virtual void on_fetch(CpuId /*cpu*/, const DynUop& /*uop*/,
                        Cycle /*now*/) {}
  /// `uop` was allocated into the ROB.
  virtual void on_dispatch(CpuId /*cpu*/, const DynUop& /*uop*/,
                           Cycle /*now*/) {}
  /// `uop` won an issue slot on `port` (an IssuePort as an int, or -1 for
  /// the portless nop/pause/halt/ipi uops, which consume issue bandwidth
  /// only) and completes execution at `done`.
  virtual void on_issue(CpuId /*cpu*/, const DynUop& /*uop*/, int /*port*/,
                        Cycle /*done*/, Cycle /*now*/) {}
  /// `uop` retired; `uops` is its retired-uop count (2 for the load+store
  /// halves of xchg), matching kUopsRetired exactly.
  virtual void on_retire(CpuId /*cpu*/, const DynUop& /*uop*/, int /*uops*/,
                         Cycle /*now*/) {}

  // --- stalls and misses -------------------------------------------------
  /// The oldest blocked uop of `cpu`, from `pc`, spent the `cycles` cycles
  /// [now, now + cycles) blocked for `reason` (bulk-reported across
  /// event-skip windows, at the exact points the stall counters are
  /// bumped). `sibling` is true when the stall would not have happened
  /// without the other context: a partitioned structure the uop would fit
  /// into at full size, a port the sibling reserved this cycle, a divider
  /// mid-operation on a sibling divide. For kPortConflict `port` names the
  /// contended IssuePort (as an int), or -1 when the uop lost to
  /// issue-bandwidth exhaustion; -1 for every other reason. Summing the
  /// self and sibling cycles per reason reproduces the stall counters
  /// bit-exactly under both event_skip modes.
  virtual void on_block(CpuId /*cpu*/, BlockReason /*reason*/,
                        uint32_t /*pc*/, bool /*sibling*/, int /*port*/,
                        Cycle /*cycles*/, Cycle /*now*/) {}
  /// A demand access by `pc` missed L1 (`l2_miss`: it also missed L2 and
  /// went to memory). Raised at the same points as the kL1Misses /
  /// kL2Misses counters.
  virtual void on_demand_miss(CpuId /*cpu*/, uint32_t /*pc*/,
                              bool /*l2_miss*/, Cycle /*now*/) {}

  // --- guest-visible events ----------------------------------------------
  /// A guest load/store/xchg executed functionally at `addr` (raised at
  /// fetch time, where the functional interpreter runs, in exact
  /// sequentially-consistent interleaving order). `value` is the value
  /// read (loads, and the old word for xchg) or the value stored.
  virtual void on_guest_access(CpuId /*cpu*/, uint32_t /*pc*/, Addr /*addr*/,
                               GuestAccess /*kind*/, uint64_t /*value*/,
                               Cycle /*now*/) {}
  /// `cpu` executed an ipi instruction (wake-up sent to the sibling).
  virtual void on_ipi_send(CpuId /*cpu*/, Cycle /*now*/) {}
  /// A halted `cpu` consumed a pending IPI and began waking.
  virtual void on_ipi_wake(CpuId /*cpu*/, Cycle /*now*/) {}
  /// `cpu` fetched a halt and starts draining toward sleep.
  virtual void on_halt_enter(CpuId /*cpu*/, Cycle /*now*/) {}
  /// A waking `cpu` finished paying the wake cost and runs again.
  virtual void on_halt_exit(CpuId /*cpu*/, Cycle /*now*/) {}
};

/// The hooks of PipelineObserver, one per virtual hook; they index the
/// core's subscriber lists.
enum class Hook : uint8_t {
  kFetch,
  kDispatch,
  kIssue,
  kRetire,
  kBlock,
  kDemandMiss,
  kGuestAccess,
  kIpiSend,
  kIpiWake,
  kHaltEnter,
  kHaltExit,
};
inline constexpr int kNumHooks = 11;

/// A set of hooks, one bit per Hook.
using HookSet = uint32_t;
inline constexpr HookSet kAllHooks = (HookSet{1} << kNumHooks) - 1;
inline constexpr HookSet bit(Hook h) {
  return HookSet{1} << static_cast<int>(h);
}

namespace detail {
// `&T::on_x` has the type of PipelineObserver's member pointer exactly when
// neither T nor a class between it and PipelineObserver overrides on_x.
template <typename Mine, typename Base>
constexpr HookSet bit_if_overridden(Hook h) {
  return std::is_same_v<Mine, Base> ? 0 : bit(h);
}
}  // namespace detail

/// The hooks an observer of static type T must receive: those T overrides
/// when T is final (its dynamic type is then T), every hook otherwise (a
/// class derived from T may override more, and a plain PipelineObserver*
/// says nothing about its target).
template <typename T>
constexpr HookSet hooks_of() {
  static_assert(std::is_base_of_v<PipelineObserver, T>);
  if constexpr (!std::is_final_v<T>) {
    return kAllHooks;
  } else {
    using B = PipelineObserver;
    using detail::bit_if_overridden;
    return bit_if_overridden<decltype(&T::on_fetch),
                             decltype(&B::on_fetch)>(Hook::kFetch) |
           bit_if_overridden<decltype(&T::on_dispatch),
                             decltype(&B::on_dispatch)>(Hook::kDispatch) |
           bit_if_overridden<decltype(&T::on_issue),
                             decltype(&B::on_issue)>(Hook::kIssue) |
           bit_if_overridden<decltype(&T::on_retire),
                             decltype(&B::on_retire)>(Hook::kRetire) |
           bit_if_overridden<decltype(&T::on_block),
                             decltype(&B::on_block)>(Hook::kBlock) |
           bit_if_overridden<decltype(&T::on_demand_miss),
                             decltype(&B::on_demand_miss)>(Hook::kDemandMiss) |
           bit_if_overridden<decltype(&T::on_guest_access),
                             decltype(&B::on_guest_access)>(
               Hook::kGuestAccess) |
           bit_if_overridden<decltype(&T::on_ipi_send),
                             decltype(&B::on_ipi_send)>(Hook::kIpiSend) |
           bit_if_overridden<decltype(&T::on_ipi_wake),
                             decltype(&B::on_ipi_wake)>(Hook::kIpiWake) |
           bit_if_overridden<decltype(&T::on_halt_enter),
                             decltype(&B::on_halt_enter)>(Hook::kHaltEnter) |
           bit_if_overridden<decltype(&T::on_halt_exit),
                             decltype(&B::on_halt_exit)>(Hook::kHaltExit);
  }
}

}  // namespace smt::cpu
