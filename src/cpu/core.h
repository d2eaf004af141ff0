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
//                       unpipelined dividers; loads/stores access the
//                       shared cache hierarchy
//   4. dispatch       — up to dispatch_width uops from the uop queue into
//                       the ROB; statically partitioned ROB / load queue /
//                       store buffer limits; stall reasons recorded here
//                       (the paper's "resource stall cycles")
//   5. fetch          — one context per cycle (alternating; a stalled
//                       sibling donates its slot) runs the functional
//                       interpreter and enqueues uops
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
// Instruments attach through one observer bus (cpu/observer.h): a single
// list filled by add_observer(), fanned out at every hook site — fetch,
// dispatch, issue, retire, demand misses, guest accesses, halt/IPI
// transitions, and one merged on_block per stalled cycle carrying the
// self-vs-sibling blame and the contended port. With the list empty each
// site costs one emptiness test. The counter sampler stays outside the
// bus (set_sampler): it is a clock that splits event-skip windows at its
// boundaries, not an event sink.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"
#include "cpu/arch_state.h"
#include "cpu/config.h"
#include "cpu/observer.h"
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
  /// stream experiments, which measure CPI over the fully-overlapped
  /// window). Returns the id of the finished context. The same loop as
  /// try_run with an earlier stop; aborts like run() on its failures.
  CpuId run_until_any_done(Cycle max_cycles = 4'000'000'000ull);

  bool done(CpuId cpu) const { return threads_[idx(cpu)].mode == TMode::kDone; }
  bool all_done() const;

  Cycle now() const { return now_; }

  /// Adds `obs` to the observer bus (not owned; it must outlive the run).
  /// Every hook site fans out over the attached observers in attachment
  /// order. Attaching never perturbs a counter or the simulation; its
  /// wants_issue_blocks() is read here, once.
  void add_observer(PipelineObserver* obs) {
    observers_.push_back(obs);
    scan_issue_blocks_ = scan_issue_blocks_ || obs->wants_issue_blocks();
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

  struct RobEntry {
    DynUop uop;
    uint64_t dep[4];  // producer sequence numbers within this thread
    int ndeps = 0;
    bool issued = false;
    Cycle done_at = 0;
  };

  struct Thread {
    const isa::Program* prog = nullptr;
    ArchState arch;
    TMode mode = TMode::kIdle;
    Cycle fetch_stall_until = 0;
    Cycle mode_until = 0;
    std::deque<DynUop> uq;
    std::vector<RobEntry> rob;   // ring indexed by seq % rob_size
    uint64_t head = 0;           // oldest in-flight seq
    uint64_t next = 0;           // next seq to allocate
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
    std::array<Cycle, kRlSize> rl_cyc{};
    std::array<bool, kRlSize> rl_valid{};
    int rl_pos = 0;
    std::array<Addr, kRsSize> rs_addr{};
    std::array<Cycle, kRsSize> rs_cyc{};
    std::array<bool, kRsSize> rs_valid{};
    int rs_pos = 0;

    size_t rob_occupancy() const { return static_cast<size_t>(next - head); }
    bool pipeline_empty() const { return uq.empty() && next == head; }
  };

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
  bool partitioned(CpuId cpu) const;
  int rob_limit(CpuId cpu) const;
  int sched_window_limit(CpuId cpu) const;
  int lq_limit(CpuId cpu) const;
  int sb_limit(CpuId cpu) const;
  int uq_limit(CpuId cpu) const;
  bool dep_ready(const Thread& t, uint64_t seq) const;
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
  /// Recomputes Thread::issue_block for both contexts (called after the
  /// issue stage; only while an observer wants issue blocks — the scan is
  /// read-only).
  void scan_issue_blocks();
  void mirror_access_stats(CpuId cpu, const mem::AccessOutcome& out,
                           bool is_load, uint32_t pc);
  void check_memory_order(Thread& t, CpuId cpu, Addr addr, uint64_t value);

  CoreConfig cfg_;
  mem::CacheHierarchy& hier_;
  mem::SimMemory& mem_;
  perfmon::PerfCounters& ctr_;
  std::function<bool()> cancel_;  // host cancellation predicate (may be empty)
  std::vector<PipelineObserver*> observers_;  // the observer bus
  bool scan_issue_blocks_ = false;  // some observer wants issue blocks
  trace::CounterSampler* sampler_ = nullptr;

  std::array<Thread, kNumLogicalCpus> threads_;
  Cycle now_ = 0;
  Cycle last_retire_cycle_ = 0;

  // Shared execution-unit state.
  Cycle fdiv_busy_until_ = 0;
  Cycle idiv_busy_until_ = 0;
  // Which context reserved the (unpipelined) divider currently busy —
  // the interference attribution for kDividerBusy blocks. Constant while
  // the divide is in flight, so it replays exactly across event-skip
  // windows.
  int fdiv_owner_ = -1;
  int idiv_owner_ = -1;
  Cycle store_commit_port_free_ = 0;

  // Issue-priority rotation (round-robin between contexts).
  int issue_pref_ = 0;

  // Per-cycle port budgets, reset in step_cycle. The single FP issue port
  // (Netburst port 1) feeds FP_ADD, FP_MUL, FP_DIV and the integer
  // multiplier; FP_MOVE has its own path (port 0).
  int cap_alu0_ = 0, cap_alu1_ = 0, cap_fp_port_ = 0, cap_fpmov_ = 0,
      cap_load_ = 0, cap_store_ = 0;

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
