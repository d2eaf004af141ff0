// TraceRecorder: cycle-stamped event timeline of one simulated run.
//
// A client of the core's observer bus (cpu/observer.h): halt entry/exit
// and IPI send/wake arrive as hooks, L2-miss bursts are built from the
// demand-miss hook, and — through address annotations registered by the
// sync primitives and the SPR prefetch runner — guest stores and xchgs on
// watched words pair into barrier episode spans and lock held spans. Events live
// in a bounded ring buffer (oldest dropped first, with a drop count), and
// are serialized as Chrome trace-event JSON — loadable in Perfetto or
// chrome://tracing — by trace/telemetry.h.
//
// The recorder is an observer: it only reads simulation state and never
// touches the perf counters, so enabling it is guaranteed not to perturb
// any measurement (asserted bit-for-bit in trace_test).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "cpu/observer.h"

namespace smt::trace {

enum class TraceKind : uint8_t {
  kHaltSpan,        ///< span: halt fetched -> running again (cpu track)
  kIpiSend,         ///< instant: sender executed `ipi` (cpu track)
  kIpiWake,         ///< instant: pending IPI consumed by a halted context
  kBarrierWait,     ///< span: first arriver's arrival -> episode completion
  kBarrierEpisode,  ///< span on the barrier's own track; arg = episode
  kSprHandoff,      ///< instant at an SPR barrier's episode completion
  kLockHeld,        ///< span: successful xchg-acquire -> release store
  kL2MissBurst,     ///< span covering >=1 L2 misses; arg = miss count
};

const char* name(TraceKind k);

/// One recorded event. Spans carry [ts, ts2); instants have ts2 == ts.
/// `cpu` is the logical-CPU track (-1 for per-annotation tracks), `ann`
/// the annotation id (-1 for core events), `arg` a kind-specific payload
/// (episode counter / miss count).
struct TraceEvent {
  Cycle ts = 0;
  Cycle ts2 = 0;
  uint64_t arg = 0;
  int16_t cpu = -1;
  int16_t ann = -1;
  TraceKind kind = TraceKind::kHaltSpan;
};

/// A shared-memory word (or pair) the recorder watches: barrier arrival
/// flags or a lock word, registered via the annotate_* calls.
struct Annotation {
  enum class Kind : uint8_t { kBarrier, kLock };
  Kind kind = Kind::kLock;
  std::string name;
  bool spr = false;  ///< barrier throttles an SPR prefetcher (handoffs)
};

class TraceRecorder final : public cpu::PipelineObserver {
 public:
  explicit TraceRecorder(size_t capacity, Cycle l2_burst_gap);

  // --- annotations (called by sync/kernels at workload setup) ------------
  int annotate_barrier(Addr flag0, Addr flag1, std::string name,
                       bool spr = false);
  int annotate_lock(Addr lock_addr, std::string name);
  const std::vector<Annotation>& annotations() const { return anns_; }

  // --- observer-bus hooks (raised by cpu::Core while simulating) ---------
  void on_halt_enter(CpuId cpu, Cycle now) override;
  void on_halt_exit(CpuId cpu, Cycle now) override;
  void on_ipi_send(CpuId cpu, Cycle now) override;
  void on_ipi_wake(CpuId cpu, Cycle now) override;
  /// Misses that went to memory (`l2_miss`) group into bursts.
  void on_demand_miss(CpuId cpu, uint32_t pc, bool l2_miss,
                      Cycle now) override;
  /// Stores and xchgs on annotated words drive the barrier and lock
  /// spans (`value`: the word stored, or the old word an xchg read).
  void on_guest_access(CpuId cpu, uint32_t pc, Addr addr,
                       cpu::GuestAccess kind, uint64_t value,
                       Cycle now) override;

  /// Closes still-open spans (bursts, halts, held locks) at `end`.
  void finalize(Cycle end);

  /// Events in timeline order of recording (oldest first).
  std::vector<TraceEvent> events() const;
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return cap_; }

 private:
  struct WatchSlot {
    int ann = -1;
    int side = 0;  // barrier flag index (0/1); unused for locks
  };
  struct BarrierState {
    uint64_t ep[2] = {0, 0};     // last stored episode per flag
    Cycle arrive[2] = {0, 0};    // cycle of that store
    int16_t arrive_cpu[2] = {-1, -1};
    uint64_t completed = 0;      // highest fully-arrived episode
  };
  struct LockState {
    bool held = false;
    Cycle since = 0;
    int16_t owner = -1;
  };
  struct BurstState {
    bool open = false;
    Cycle begin = 0;
    Cycle last = 0;
    uint64_t count = 0;
  };
  struct HaltState {
    bool open = false;
    Cycle begin = 0;
  };

  void push(const TraceEvent& e);
  void close_burst(int cpu);

  size_t cap_;
  Cycle l2_burst_gap_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // index of oldest event once the ring wrapped
  uint64_t dropped_ = 0;

  std::vector<Annotation> anns_;
  std::unordered_map<Addr, WatchSlot> watch_;
  std::vector<BarrierState> barriers_;  // indexed like anns_
  std::vector<LockState> locks_;        // indexed like anns_
  BurstState burst_[kNumLogicalCpus];
  HaltState halt_[kNumLogicalCpus];
};

}  // namespace smt::trace
