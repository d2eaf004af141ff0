// Cycle-level model of one physical Netburst-class processor with two
// Hyper-Threading contexts.
//
// Structure per simulated cycle (step_cycle):
//   1. mode updates   — halt entry/exit, IPI wake, exit draining
//   2. retire         — in-order, up to retire_width uops from one context
//                       (contexts alternate cycle by cycle); retired stores
//                       begin draining from the store buffer into the cache
//   3. issue/execute  — dependence-checked out-of-order issue onto shared
//                       ports; double-speed ALUs, ALU0-only logical ops,
//                       unpipelined dividers, all as cpu/ports.h defines
//                       them (each uop takes its first candidate port
//                       with capacity left); loads/stores access the
//                       shared cache hierarchy. Each context keeps its
//                       unissued uops in an ordered list (the scheduler
//                       window is its first sched_window entries), and
//                       each cycle's scan resumes where the previous issue
//                       left off, so issue work is proportional to the
//                       uops looked at, not to ROB occupancy. Readiness is
//                       wakeup-driven: dispatch links a uop to each
//                       producer that has not issued, and a producer's
//                       issue wakes its waiters, so a uop's ready cycle is
//                       known the moment its last producer issues and the
//                       readiness check is one compare
//   4. dispatch       — up to dispatch_width uops from the uop queue into
//                       the ROB; statically partitioned ROB / load queue /
//                       store buffer limits; stall reasons recorded here
//                       (the paper's "resource stall cycles")
//   5. fetch          — one context per cycle (alternating; a stalled
//                       sibling donates its slot) runs the functional
//                       interpreter and enqueues a copy of the
//                       instruction's predecoded uop (the trace-cache
//                       analog: load_program decodes every static
//                       instruction once), filled in with its uid and
//                       effective address
//
// The partition limits (ROB, load queue, store buffer, uop queue and
// scheduler window, halved while the sibling is active) are worked out at
// most once per cycle, right after the mode updates and only when a mode
// changed, and the per-opcode latencies and divider assignments once per
// Core, so no stage recomputes them per uop.
//
// Dependences are RAW-only on architectural registers (Netburst's 128
// physical registers rename WAW/WAR away). The paper's |T| register-set ILP
// construction still works because its streams accumulate into their
// targets (t = t op s): one target register means one RAW chain serialized
// at unit latency, six targets mean six independent chains.
//
// When a whole cycle passes with no activity, run() fast-forwards to the
// next event (outstanding miss completion, pause/halt timer, store drain),
// bulk-accumulating the per-cycle counters, so halt-synchronized workloads
// simulate quickly.
//
// Instruments attach through one observer bus (cpu/observer.h): one
// subscriber list per hook, filled by add_observer() with the hooks each
// observer's class overrides, and fanned out at that hook's site — fetch,
// dispatch, issue, retire, demand misses, guest accesses, halt/IPI
// transitions, and one merged on_block per stalled cycle carrying the
// self-vs-sibling blame and the contended port. A site whose list is
// empty costs one emptiness test, so an observer costs only at the hooks
// it records. The counter sampler stays outside the bus (set_sampler): it
// is a clock that splits event-skip windows at its boundaries, not an
// event sink.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "cpu/arch_state.h"
#include "cpu/config.h"
#include "cpu/observer.h"
#include "cpu/ports.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "mem/sim_memory.h"
#include "perfmon/counters.h"

namespace smt::trace {
class CounterSampler;
}  // namespace smt::trace

namespace smt::cpu {

/// Sentinel of next_event_cycle(): no context has any scheduled future
/// event — every bound context is asleep with no wake-up pending, i.e.
/// the simulated synchronization has deadlocked.
inline constexpr Cycle kNoFutureEvent = std::numeric_limits<Cycle>::max();

/// Why a (non-aborting) run loop returned.
enum class RunTermination : uint8_t {
  kDone,                 // every bound context exited
  kDeadlock,             // watchdog or lost wake-up: no forward progress
  kCycleBudgetExceeded,  // max_cycles elapsed before completion
  kCancelled,            // the host cancel check fired (sweep watchdog)
};
const char* name(RunTermination t);

/// Structured result of Core::try_run — the failure paths the legacy
/// run() turns into SMT_CHECK aborts, as data.
struct RunResult {
  RunTermination termination = RunTermination::kDone;
  std::string message;  // empty on kDone; the would-be abort text otherwise

  bool ok() const { return termination == RunTermination::kDone; }
};

class Core {
 public:
  Core(const CoreConfig& cfg, mem::CacheHierarchy& hierarchy,
       mem::SimMemory& memory, perfmon::PerfCounters& counters);

  /// Binds a program to a logical CPU (the sched_setaffinity analog) with
  /// initial architectural register state.
  void load_program(CpuId cpu, const isa::Program& prog,
                    const ArchState& init = {});

  /// Runs until every bound context has exited. Aborts via SMT_CHECK if the
  /// watchdog sees no retirement progress (deadlock in simulated sync) or
  /// `max_cycles` elapses.
  void run(Cycle max_cycles = 4'000'000'000ull);

  /// Non-aborting run: like run(), but a deadlock (retirement watchdog or
  /// lost wake-up), an exhausted cycle budget, or a fired cancel check is
  /// returned as a structured RunResult instead of crashing the process.
  /// The simulation state stays valid and inspectable after any outcome —
  /// counters, cycles and memory reflect the partial run.
  RunResult try_run(Cycle max_cycles = 4'000'000'000ull);

  /// Installs a host-side cancellation predicate polled periodically (every
  /// few thousand run-loop iterations) by try_run; when it returns true,
  /// try_run stops with kCancelled. Pass an empty function to detach. Used
  /// by the sweep job pool's wall-clock watchdog; polling never perturbs
  /// the simulation, and an uncancelled run is bit-identical with or
  /// without a check installed.
  void set_cancel_check(std::function<bool()> cancel) {
    cancel_ = std::move(cancel);
  }

  /// Runs until the first bound context exits (used by the co-execution
  /// experiments, which measure CPI over the fully-overlapped window).
  /// Returns the id of the finished context. The same loop as try_run
  /// with an earlier stop; aborts like run() on its failures.
  CpuId run_until_any_done(Cycle max_cycles = 4'000'000'000ull);

  /// Non-aborting twin of run_until_any_done, as try_run is of run(): on
  /// kDone at least one bound context has exited (see done()).
  RunResult try_run_until_any_done(Cycle max_cycles = 4'000'000'000ull);

  bool done(CpuId cpu) const { return threads_[idx(cpu)].mode == TMode::kDone; }
  bool all_done() const;

  Cycle now() const { return now_; }

  /// Adds `obs` to the observer bus (not owned; it must outlive the run),
  /// subscribed to hooks_of<T>(): the hooks a final T overrides, every
  /// hook otherwise. Each hook site fans out over its subscribers in
  /// attachment order. Attaching never perturbs a counter or the
  /// simulation; its wants_issue_blocks() is read here, once.
  template <typename T>
  void add_observer(T* obs) {
    subscribe(obs, hooks_of<T>());
  }

  /// Attaches the windowed counter sampler (may be null to detach). Not a
  /// bus client: the core must call it at every window boundary and split
  /// its bulk event-skip accumulation there (an exact transformation), so
  /// every counter stays bit-identical to an unsampled run.
  void set_sampler(trace::CounterSampler* sampler) { sampler_ = sampler; }

  /// Architectural state inspection (tests).
  const ArchState& arch(CpuId cpu) const { return threads_[idx(cpu)].arch; }

  const CoreConfig& config() const { return cfg_; }

  /// Read-only occupancy/run-state snapshot of one context, for the
  /// flight recorder's periodic samples and the post-mortem core dump.
  struct ThreadSnapshot {
    const char* mode = "idle";  // TMode name ("running", "halted", ...)
    uint32_t next_pc = 0;       // next instruction the frontend would fetch
    size_t rob_occupancy = 0;
    size_t uq_occupancy = 0;
    int lq_used = 0;
    int sb_used = 0;
    bool ipi_pending = false;
  };
  ThreadSnapshot snapshot_thread(CpuId cpu) const;

 private:
  enum class TMode : uint8_t {
    kIdle,       // no program bound
    kRunning,
    kHalting,    // halt fetched; draining in-flight uops
    kEnterHalt,  // paying the halt transition cost
    kHalted,     // asleep; resources released to the sibling
    kWaking,     // IPI received; paying the wake cost
    kExiting,    // exit fetched; draining
    kDone,
  };

  /// Why a context's oldest blocked uop could not advance this cycle —
  /// one record per pipeline stage (allocation, frontend, issue), consumed
  /// by record_cycle_counters to raise on_block. Every field is constant
  /// within an event-skip window (occupancies, partitioning, port state
  /// and divider ownership are frozen, and every deadline that could
  /// change them is a next_event_cycle candidate), so replaying a record
  /// over n cycles equals per-cycle recomputation.
  struct Block {
    bool active = false;
    BlockReason reason = BlockReason::kRob;
    uint32_t pc = 0;       // the blocked uop (or next fetch PC)
    bool sibling = false;  // only the other context made it block
    int port = -1;         // contended IssuePort for kPortConflict, else -1
  };

  /// One waiter link per source-register slot of a uop: link
  /// slot * kLinksPerUop + d stands for source d of the uop in ROB slot
  /// `slot` while it waits on an unissued producer.
  static constexpr uint32_t kLinksPerUop =
      static_cast<uint32_t>(std::extent_v<decltype(DynUop::dep_regs)>);
  static constexpr uint32_t kNoLink = std::numeric_limits<uint32_t>::max();

  struct RobEntry {
    DynUop uop;
    bool issued = false;
    Cycle done_at = 0;
    // Wakeup state, set at dispatch. While unissued: how many of its
    // producers have not issued yet, and the max done_at of those that
    // have. Until it issues: the head of its own waiter list — the links
    // of the consumers dispatched before it issued (Thread::next_link).
    uint32_t waiting_on = 0;
    Cycle producers_done = 0;
    uint32_t waiters = kNoLink;
  };

  /// Thread::ready_at of a uop with a producer that has not issued yet.
  static constexpr Cycle kReadyUnknown = std::numeric_limits<Cycle>::max();
  static constexpr size_t kNoneDenied = std::numeric_limits<size_t>::max();

  /// The uop queue: a fixed ring of uop_queue_size entries (fetch pushes,
  /// dispatch pops the front).
  class UopQueue {
   public:
    void init(size_t capacity) { ring_.resize(capacity); }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    const DynUop& front() const { return ring_[head_]; }
    void pop_front() {
      if (++head_ == ring_.size()) head_ = 0;
      --size_;
    }
    void push_back(const DynUop& u) {
      size_t tail = head_ + size_;
      if (tail >= ring_.size()) tail -= ring_.size();
      ring_[tail] = u;
      ++size_;
    }

   private:
    std::vector<DynUop> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  /// The static part of a uop, decoded once per instruction by
  /// load_program: everything DynUop holds except uid, pc and addr.
  struct StaticUop {
    isa::Opcode op = isa::Opcode::kNop;
    isa::UnitClass unit = isa::UnitClass::kNone;
    isa::RegId dst = isa::kNoReg;
    uint8_t ndep_regs = 0;
    std::array<isa::RegId, kLinksPerUop> dep_regs{};
    bool is_branch = false;
    bool is_load = false;
    bool is_store = false;
    bool is_prefetch = false;
    bool prefetch_to_l1 = false;
  };
  static_assert(sizeof(StaticUop) <= 16);
  /// Decodes `in` into `*s`, which must hold a default StaticUop.
  static void decode(const isa::Instr& in, StaticUop* s);

  /// A context's share of the partitioned structures; halved while
  /// partitioned (static partitioning on and the sibling active).
  struct Limits {
    bool partitioned = false;
    int rob = 0;
    int lq = 0;
    int sb = 0;
    int uq = 0;
    int sched_window = 0;
    bool operator==(const Limits&) const = default;
  };

  struct Thread {
    const isa::Program* prog = nullptr;
    // decoded[pc] is prog->at(pc) predecoded (load_program).
    std::vector<StaticUop> decoded;
    // This context's limits, as compute_limits gives them; see
    // update_limits for why they stay exact between updates.
    Limits limits;
    ArchState arch;
    TMode mode = TMode::kIdle;
    Cycle fetch_stall_until = 0;
    Cycle mode_until = 0;
    UopQueue uq;
    std::vector<RobEntry> rob;   // ring indexed by seq & rob_mask_
    uint64_t head = 0;           // oldest in-flight seq
    uint64_t next = 0;           // next seq to allocate
    // Per ROB slot: the cycle its unissued uop's last producer result is
    // done, kReadyUnknown while a producer has not issued. Dispatch sets
    // it; the issue of the last producer fills it in, and it is exact from
    // then on, because done_at never changes after issue.
    std::vector<Cycle> ready_at;
    // Per waiter link (see kLinksPerUop): the next link in the same
    // producer's waiter list, kNoLink at the end. A link is in a list
    // only while its uop waits, so a reused slot's links are free.
    std::vector<uint32_t> next_link;
    // The unissued uops' seqs in order: dispatch appends, issue erases.
    // The scheduler window is its first sched_window_limit() entries.
    std::vector<uint64_t> unissued;
    // Where this cycle's issue scan resumes: every entry before it was
    // rejected this cycle and stays rejected (port caps and divider state
    // only tighten within a cycle, an unready uop waits on an unissued
    // producer that sits earlier in the list, and a known ready cycle
    // after now_ stays after it). Reset to 0 before each issue stage.
    size_t scan_pos = 0;
    // The first index this cycle's scan found ready but denied a port or
    // its divider (kNoneDenied if none). Entries before scan_pos never
    // shift within a cycle, so it still names that uop once the scan has
    // moved past it; scan_issue_blocks starts there. Reset with scan_pos.
    size_t first_denied = kNoneDenied;
    // last_writer[reg] = seq + 1 of the most recent dispatched writer
    // (0 = none in recorded history).
    std::array<uint64_t, isa::kNumRegs> last_writer{};
    int lq_used = 0;
    int sb_used = 0;
    std::vector<Cycle> sb_drain_free_at;
    bool ipi_pending = false;
    // Allocation stall of uq.front() (ROB / load queue / store buffer);
    // sibling-blamed when the uop would fit the full, unpartitioned
    // structure.
    Block alloc_stall;
    // Set by the fetch stage when this context donated its slot because
    // the uop queue was full (pc = the next instruction to fetch);
    // sibling-blamed when the queue would accept it at full size.
    Block uq_full;
    // Oldest dependence-ready but unissued uop in the scheduler window,
    // recomputed after the issue stage of every stepped cycle while an
    // attached observer wants issue blocks (scan_issue_blocks).
    Block issue_block;
    // Recent-load/-store rings for memory-order-violation detection.
    static constexpr int kRlSize = 8;
    static constexpr int kRsSize = 16;
    std::array<Addr, kRlSize> rl_addr{};
    std::array<uint64_t, kRlSize> rl_val{};
    std::array<bool, kRlSize> rl_valid{};
    int rl_pos = 0;
    std::array<Addr, kRsSize> rs_addr{};
    std::array<Cycle, kRsSize> rs_cyc{};
    std::array<bool, kRsSize> rs_valid{};
    int rs_pos = 0;

    size_t rob_occupancy() const { return static_cast<size_t>(next - head); }
    bool pipeline_empty() const { return uq.empty() && next == head; }
  };

  void subscribe(PipelineObserver* obs, HookSet hooks);
  /// The observers subscribed to hook `h`, in attachment order.
  const std::vector<PipelineObserver*>& subscribers(Hook h) const {
    return subscribers_[static_cast<int>(h)];
  }

  // --- per-cycle stages ----------------------------------------------------
  /// Returns true if any architectural progress happened this cycle.
  bool step_cycle();
  void update_modes(Thread& t, CpuId cpu);
  int retire_thread(Thread& t, CpuId cpu);
  bool try_issue_one(Thread& t, CpuId cpu, int& budget);
  int dispatch_thread(Thread& t, CpuId cpu);
  int fetch_thread(Thread& t, CpuId cpu);

  // --- helpers ---------------------------------------------------------
  bool other_active(CpuId cpu) const;
  Limits compute_limits(CpuId cpu) const;
  /// Stores compute_limits in both contexts' Thread::limits.
  void update_limits();
  bool partitioned(CpuId cpu) const { return limits(cpu).partitioned; }
  int rob_limit(CpuId cpu) const { return limits(cpu).rob; }
  int sched_window_limit(CpuId cpu) const { return limits(cpu).sched_window; }
  int lq_limit(CpuId cpu) const { return limits(cpu).lq; }
  int sb_limit(CpuId cpu) const { return limits(cpu).sb; }
  int uq_limit(CpuId cpu) const { return limits(cpu).uq; }
  const Limits& limits(CpuId cpu) const { return threads_[idx(cpu)].limits; }
  /// Whether the unissued uop `seq` of `t` may issue in cycle now_ as far
  /// as its dependences go: one compare, no dependence walk. The one
  /// readiness definition of the issue stage and of scan_issue_blocks.
  bool ready(const Thread& t, uint64_t seq) const {
    return t.ready_at[seq & rob_mask_] <= now_;
  }
  /// Links the uop being dispatched into slot `slot` of `t` to its
  /// producers and sets its ready cycle.
  void link_producers(Thread& t, uint32_t slot);
  /// Tells the consumers waiting on `e` (just issued, result done at
  /// `done`) that it has issued.
  void wake_waiters(Thread& t, RobEntry& e, Cycle done);
  void reclaim_store_buffer(Thread& t);
  /// Classifies the allocation stall of `t`'s next uop (inactive when the
  /// uop queue is empty or the uop fits) — the one copy of the ROB / load
  /// queue / store buffer gate shared by dispatch and stall accounting.
  Block alloc_block(const Thread& t, CpuId cpu) const;
  void deliver_ipi(CpuId target);
  /// Accumulates the per-cycle counters for the `n` cycles [first, first+n).
  /// Called with (now_, 1) at the end of every stepped cycle and with the
  /// skipped window during event-skip fast-forward; the attribution is
  /// bit-identical either way (regression-tested), because within a
  /// no-activity window every per-cycle predicate is provably constant.
  void record_cycle_counters(Cycle first, Cycle n);
  void notify_block(CpuId cpu, const Block& b, Cycle first, Cycle n);
  /// record_cycle_counters for a skipped window, split at counter-sampler
  /// boundaries so each sampling window receives exactly the cycles it
  /// covers (bit-identical to single-cycle stepping).
  void record_skipped_window(Cycle first, Cycle n);
  /// Closes every sampler window ending at or before cycle `t` (requires
  /// all cycles < t to be accounted). No-op without a sampler.
  void sample_up_to(Cycle t);
  Cycle next_event_cycle() const;
  /// The shared run loop of try_run and run_until_any_done: steps (and
  /// event-skips) until `stop` holds or a failure ends the run.
  RunResult run_until(Cycle max_cycles, bool (Core::*stop)() const);
  /// True once some bound context has exited.
  bool any_done() const;
  /// Recomputes Thread::issue_block for both contexts from where the
  /// issue scan left them (called after the issue stage; only while an
  /// observer wants issue blocks — the scan is read-only).
  void scan_issue_blocks();
  void mirror_access_stats(CpuId cpu, const mem::AccessOutcome& out,
                           bool is_load, uint32_t pc);
  void check_memory_order(Thread& t, CpuId cpu, Addr addr, uint64_t value);

  CoreConfig cfg_;
  // The ROB ring has bit_ceil(rob_size) slots, so seq & rob_mask_ indexes
  // it; at most rob_size of them are ever occupied.
  uint64_t rob_mask_ = 0;
  mem::CacheHierarchy& hier_;
  mem::SimMemory& mem_;
  perfmon::PerfCounters& ctr_;
  std::function<bool()> cancel_;  // host cancellation predicate (may be empty)
  // The observer bus: one subscriber list per Hook.
  std::array<std::vector<PipelineObserver*>, kNumHooks> subscribers_;
  bool scan_issue_blocks_ = false;  // some observer wants issue blocks
  trace::CounterSampler* sampler_ = nullptr;

  std::array<Thread, kNumLogicalCpus> threads_;
  Cycle now_ = 0;
  Cycle last_retire_cycle_ = 0;

  // The unpipelined dividers (indexed by cpu::Divider): the cycle the
  // divide in flight completes, and which context reserved it — the
  // interference attribution for kDividerBusy blocks. Both are constant
  // while the divide is in flight, so they replay exactly across
  // event-skip windows.
  struct DividerState {
    Cycle busy_until = 0;
    int owner = -1;
  };
  std::array<DividerState, kNumDividers> dividers_{};
  Cycle store_commit_port_free_ = 0;

  // Issue-priority rotation (round-robin between contexts).
  int issue_pref_ = 0;

  // Per-cycle port budgets (indexed by IssuePort), refilled from
  // port_caps_ = port_caps(cfg_) in step_cycle.
  std::array<int, kNumIssuePorts> caps_{};
  std::array<int, kNumIssuePorts> port_caps_{};

  // Per opcode: cfg_.latency(op), and the unpipelined divider the op
  // occupies (unpipelined_divider of its unit class; -1 for none).
  std::array<Cycle, isa::kNumOpcodeValues> latency_{};
  std::array<int, isa::kNumOpcodeValues> divider_{};

  // Per-cycle issue bookkeeping for interference attribution: which
  // context issued onto which port this cycle (reset with the caps;
  // all-zero in event-skip frozen cycles, where nothing issues). Written
  // unconditionally — two array stores per issued uop — and consumed only
  // by scan_issue_blocks, so detached runs stay unperturbed.
  std::array<std::array<uint16_t, kNumIssuePorts>, kNumLogicalCpus>
      port_issued_{};
  std::array<uint16_t, kNumLogicalCpus> uops_issued_{};

  // Monotonic fetch-order uop id source (see DynUop::uid).
  uint64_t uop_uid_next_ = 1;

  static const char* mode_name(TMode m);
};

}  // namespace smt::cpu
