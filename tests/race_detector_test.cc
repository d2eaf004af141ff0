// Tests for the dynamic half of the guest-program verifier: the
// happens-before race detector. Covers the unit-level vector-clock edges
// (sync word release/acquire, IPI send -> wake), whole-workload detection
// through try_run_workload (structured kRaceDetected outcomes), the
// cleanliness of properly synchronized flag / lock / barrier programs —
// including the real TLP kernels — and the pure-observer contract:
// attaching the detector never changes a perf counter bit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/race_detector.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "host/experiments.h"
#include "isa/asm_builder.h"
#include "kernels/matmul.h"
#include "mem/sim_memory.h"
#include "sync/primitives.h"

namespace smt {
namespace {

using analysis::RaceDetector;
using cpu::GuestAccess;
using isa::AsmBuilder;
using isa::BrCond;
using isa::IReg;
using isa::Label;
using isa::Mem;

constexpr Addr kData = 0x10000;
constexpr Addr kSync = 0x8000;

// ---------------------------------------------------------------------------
// Unit level: drive the observer callbacks directly
// ---------------------------------------------------------------------------

TEST(RaceDetectorUnit, UnorderedWriteReadPairIsARace) {
  RaceDetector det;
  det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, 7, 0);
  det.on_guest_access(CpuId::kCpu1, 2, kData, GuestAccess::kLoad, 7, 0);
  EXPECT_FALSE(det.clean());
  ASSERT_EQ(det.races().size(), 1u);
  EXPECT_EQ(det.races()[0].addr, kData);
  EXPECT_EQ(det.races()[0].first_kind, GuestAccess::kStore);
  EXPECT_EQ(det.races()[0].second_kind, GuestAccess::kLoad);
  EXPECT_EQ(det.total_races(), 1u);
}

TEST(RaceDetectorUnit, ConcurrentReadsDoNotRace) {
  RaceDetector det;
  det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kLoad, 0, 0);
  det.on_guest_access(CpuId::kCpu1, 2, kData, GuestAccess::kLoad, 0, 0);
  EXPECT_TRUE(det.clean());
}

TEST(RaceDetectorUnit, SameContextAccessesNeverRace) {
  RaceDetector det;
  det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, 1, 0);
  det.on_guest_access(CpuId::kCpu0, 2, kData, GuestAccess::kStore, 2, 0);
  det.on_guest_access(CpuId::kCpu0, 3, kData, GuestAccess::kLoad, 2, 0);
  EXPECT_TRUE(det.clean());
}

TEST(RaceDetectorUnit, SyncWordReleaseAcquireOrdersTheHandoff) {
  RaceDetector det;
  det.add_sync_word(kSync);
  // cpu0: write payload, then release via the sync word.
  det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, 42, 0);
  det.on_guest_access(CpuId::kCpu0, 2, kSync, GuestAccess::kStore, 1, 0);
  // cpu1: acquire via the sync word, then read the payload.
  det.on_guest_access(CpuId::kCpu1, 3, kSync, GuestAccess::kLoad, 1, 0);
  det.on_guest_access(CpuId::kCpu1, 4, kData, GuestAccess::kLoad, 42, 0);
  EXPECT_TRUE(det.clean());
}

TEST(RaceDetectorUnit, AccessesToTheSyncWordItselfNeverRace) {
  RaceDetector det;
  det.add_sync_word(kSync);
  det.on_guest_access(CpuId::kCpu0, 1, kSync, GuestAccess::kStore, 1, 0);
  det.on_guest_access(CpuId::kCpu1, 2, kSync, GuestAccess::kXchg, 0, 0);
  det.on_guest_access(CpuId::kCpu1, 3, kSync, GuestAccess::kLoad, 1, 0);
  EXPECT_TRUE(det.clean());
}

TEST(RaceDetectorUnit, MissingAcquireStillRaces) {
  RaceDetector det;
  det.add_sync_word(kSync);
  det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, 42, 0);
  det.on_guest_access(CpuId::kCpu0, 2, kSync, GuestAccess::kStore, 1, 0);
  // cpu1 reads the payload without ever touching the sync word.
  det.on_guest_access(CpuId::kCpu1, 3, kData, GuestAccess::kLoad, 42, 0);
  EXPECT_FALSE(det.clean());
}

TEST(RaceDetectorUnit, IpiSendToWakeIsAHappensBeforeEdge) {
  {
    RaceDetector det;
    det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, 5, 0);
    det.on_ipi_send(CpuId::kCpu0, 0);
    det.on_ipi_wake(CpuId::kCpu1, 0);
    det.on_guest_access(CpuId::kCpu1, 2, kData, GuestAccess::kLoad, 5, 0);
    EXPECT_TRUE(det.clean());
  }
  {
    // Without the wake-side join the same pair races.
    RaceDetector det;
    det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, 5, 0);
    det.on_ipi_send(CpuId::kCpu0, 0);
    det.on_guest_access(CpuId::kCpu1, 2, kData, GuestAccess::kLoad, 5, 0);
    EXPECT_FALSE(det.clean());
  }
}

TEST(RaceDetectorUnit, DuplicatePairsDedupButStillCount) {
  RaceDetector det;
  for (int i = 0; i < 5; ++i) {
    det.on_guest_access(CpuId::kCpu0, 1, kData, GuestAccess::kStore, i, 0);
    det.on_guest_access(CpuId::kCpu1, 2, kData, GuestAccess::kLoad, i, 0);
  }
  // Two distinct pair shapes (store-then-load across iterations, plus
  // read-then-store at the loop seam) — repeats only bump the total.
  EXPECT_EQ(det.races().size(), 2u);
  EXPECT_GT(det.total_races(), 2u);
  EXPECT_NE(det.summary().find("further conflicting"), std::string::npos);
}

TEST(RaceDetectorUnit, ExtentCheckRequiresCompleteness) {
  {
    RaceDetector det;
    det.add_extent(kData, 64);
    det.on_guest_access(CpuId::kCpu0, 1, 0x9000, GuestAccess::kStore, 0, 0);
    EXPECT_TRUE(det.clean());  // incomplete extents: check disabled
  }
  {
    RaceDetector det;
    det.add_extent(kData, 64);
    det.set_extents_complete(true);
    det.on_guest_access(CpuId::kCpu0, 1, kData + 56, GuestAccess::kStore, 0, 0);
    EXPECT_TRUE(det.clean());  // last in-bounds word
    det.on_guest_access(CpuId::kCpu0, 2, 0x9000, GuestAccess::kStore, 0, 0);
    EXPECT_FALSE(det.clean());
    ASSERT_EQ(det.extent_violations().size(), 1u);
    EXPECT_EQ(det.extent_violations()[0].addr, 0x9000u);
    EXPECT_NE(det.summary().find("outside registered extents"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Workload level: structured outcomes through try_run_workload
// ---------------------------------------------------------------------------

core::RunOutcome run_def(const host::ExperimentDef& def, bool race_detect) {
  const std::unique_ptr<core::Workload> w = def.make();
  return core::try_run_workload(core::MachineConfig{}, *w, def.cycle_budget,
                                nullptr, core::RunOptions{race_detect});
}

TEST(RaceDetection, RacySelfTestYieldsStructuredOutcome) {
  const host::ExperimentDef* def = host::find_experiment("selftest.race");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->race_detect);
  EXPECT_EQ(def->manifest, "selftest");

  const core::RunOutcome o = run_def(*def, /*race_detect=*/true);
  EXPECT_EQ(o.status, core::RunStatus::kRaceDetected);
  EXPECT_NE(o.message.find("data race on word"), std::string::npos);
  ASSERT_NE(o.stats.race_detector, nullptr);
  EXPECT_FALSE(o.stats.race_detector->clean());
  EXPECT_GT(o.stats.race_detector->total_races(), 0u);
  // The partial-run contract holds: stats still describe a full run.
  EXPECT_GT(o.stats.cycles, 0u);
}

TEST(RaceDetection, SameWorkloadPassesWithDetectionOff) {
  const host::ExperimentDef* def = host::find_experiment("selftest.race");
  ASSERT_NE(def, nullptr);
  const core::RunOutcome o = run_def(*def, /*race_detect=*/false);
  EXPECT_EQ(o.status, core::RunStatus::kOk);
  EXPECT_EQ(o.stats.race_detector, nullptr);
}

/// Release/acquire handoff through a flag word: writer publishes a payload
/// and sets the flag; reader spins on the flag, then consumes the payload.
class FlagHandoffWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }

  void setup(core::Machine& m) override {
    mem::MemoryLayout data(kData);
    payload_ = data.alloc_words("payload", 1);
    data_regions_ = data.regions();
    mem::MemoryLayout sync(kSync);
    flag_ = sync.alloc_words("flag", 1);
    sync_regions_ = sync.regions();
    m.memory().write_i64(payload_, 0);
    m.memory().write_i64(flag_, 0);
  }

  std::vector<isa::Program> programs() const override {
    AsmBuilder w("handoff.writer");
    w.imovi(IReg::R0, 42);
    w.store(IReg::R0, Mem::abs(payload_));
    sync::emit_flag_set(w, flag_, IReg::R1, 1);
    w.exit();

    AsmBuilder r("handoff.reader");
    sync::emit_spin_until_eq(r, flag_, IReg::R0, 1, sync::SpinKind::kPause);
    r.load(IReg::R1, Mem::abs(payload_));
    r.store(IReg::R1, Mem::abs(payload_));  // write after the handoff too
    r.exit();
    return {w.take(), r.take()};
  }

  bool verify(const core::Machine& m) const override {
    return m.memory().read_i64(payload_) == 42;
  }

  core::MemInfo mem_info() const override {
    return {data_regions_, sync_regions_, /*complete=*/true};
  }

 private:
  std::string name_ = "test.flag-handoff";
  Addr payload_ = 0;
  Addr flag_ = 0;
  std::vector<mem::MemoryLayout::Region> data_regions_;
  std::vector<mem::MemoryLayout::Region> sync_regions_;
};

TEST(RaceDetection, FlagSynchronizedHandoffIsClean) {
  FlagHandoffWorkload w;
  const core::RunOutcome o = core::try_run_workload(
      core::MachineConfig{}, w, 1'000'000, nullptr, core::RunOptions{true});
  EXPECT_EQ(o.status, core::RunStatus::kOk) << o.message;
  ASSERT_NE(o.stats.race_detector, nullptr);
  EXPECT_TRUE(o.stats.race_detector->clean());
}

/// Both contexts increment a shared counter under a test-and-set lock.
/// The lock word becomes a sync word via the programs' own annotations —
/// this workload does not register any sync region.
class LockedCounterWorkload : public core::Workload {
 public:
  static constexpr int kItersPerThread = 8;

  const std::string& name() const override { return name_; }

  void setup(core::Machine& m) override {
    mem::MemoryLayout data(kData);
    counter_ = data.alloc_words("counter", 1);
    data_regions_ = data.regions();
    mem::MemoryLayout sync(kSync);
    lock_ = sync.alloc_words("lock", 1);
    sync_regions_ = sync.regions();
    m.memory().write_i64(counter_, 0);
    m.memory().write_i64(lock_, 0);
  }

  std::vector<isa::Program> programs() const override {
    std::vector<isa::Program> out;
    for (int tid = 0; tid < 2; ++tid) {
      AsmBuilder a(tid == 0 ? "locked.t0" : "locked.t1");
      a.imovi(IReg::R0, 0);
      const Label loop = a.here();
      sync::emit_lock_acquire(a, lock_, IReg::R3, sync::SpinKind::kPause);
      a.load(IReg::R1, Mem::abs(counter_));
      a.iaddi(IReg::R1, IReg::R1, 1);
      a.store(IReg::R1, Mem::abs(counter_));
      sync::emit_lock_release(a, lock_, IReg::R3);
      a.iaddi(IReg::R0, IReg::R0, 1);
      a.bri(BrCond::kLt, IReg::R0, kItersPerThread, loop);
      a.exit();
      out.push_back(a.take());
    }
    return out;
  }

  bool verify(const core::Machine& m) const override {
    return m.memory().read_i64(counter_) == 2 * kItersPerThread;
  }

  core::MemInfo mem_info() const override {
    return {data_regions_, sync_regions_, /*complete=*/true};
  }

 private:
  std::string name_ = "test.locked-counter";
  Addr counter_ = 0;
  Addr lock_ = 0;
  std::vector<mem::MemoryLayout::Region> data_regions_;
  std::vector<mem::MemoryLayout::Region> sync_regions_;
};

TEST(RaceDetection, LockProtectedCounterIsClean) {
  LockedCounterWorkload w;
  const core::RunOutcome o = core::try_run_workload(
      core::MachineConfig{}, w, 1'000'000, nullptr, core::RunOptions{true});
  EXPECT_EQ(o.status, core::RunStatus::kOk) << o.message;
  ASSERT_NE(o.stats.race_detector, nullptr);
  EXPECT_TRUE(o.stats.race_detector->clean());
}

/// Like LockedCounterWorkload but thread 1 skips the lock entirely — the
/// increments race and the detector must say so through the runner.
class UnlockedCounterWorkload : public LockedCounterWorkload {
 public:
  std::vector<isa::Program> programs() const override {
    std::vector<isa::Program> out = LockedCounterWorkload::programs();
    AsmBuilder a("unlocked.t1");
    a.imovi(IReg::R0, 0);
    const Label loop = a.here();
    a.load(IReg::R1, Mem::abs(counter_addr()));
    a.iaddi(IReg::R1, IReg::R1, 1);
    a.store(IReg::R1, Mem::abs(counter_addr()));
    a.iaddi(IReg::R0, IReg::R0, 1);
    a.bri(BrCond::kLt, IReg::R0, kItersPerThread, loop);
    a.exit();
    out[1] = a.take();
    return out;
  }

  bool verify(const core::Machine& m) const override {
    const int64_t v = m.memory().read_i64(counter_addr());
    return v > 0 && v <= 2 * kItersPerThread;
  }

 protected:
  Addr counter_addr() const { return mem_info().data.at(0).base; }
};

TEST(RaceDetection, SkippingTheLockIsCaught) {
  UnlockedCounterWorkload w;
  const core::RunOutcome o = core::try_run_workload(
      core::MachineConfig{}, w, 1'000'000, nullptr, core::RunOptions{true});
  EXPECT_EQ(o.status, core::RunStatus::kRaceDetected);
  EXPECT_NE(o.message.find("data race on word"), std::string::npos);
}

/// Stores through a computed address outside every registered extent: the
/// static lint cannot see it, the dynamic extent check must.
class WildStoreWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }

  void setup(core::Machine& m) override {
    mem::MemoryLayout data(kData);
    word_ = data.alloc_words("word", 1);
    data_regions_ = data.regions();
    m.memory().write_i64(word_, 0);
  }

  std::vector<isa::Program> programs() const override {
    AsmBuilder a("wild.store");
    a.imovi(IReg::R0, 0x9000);  // not a registered extent
    a.imovi(IReg::R1, 1);
    a.store(IReg::R1, Mem::bd(IReg::R0, 0));
    a.exit();
    return {a.take()};
  }

  bool verify(const core::Machine&) const override { return true; }

  core::MemInfo mem_info() const override {
    return {data_regions_, {}, /*complete=*/true};
  }

 private:
  std::string name_ = "test.wild-store";
  Addr word_ = 0;
  std::vector<mem::MemoryLayout::Region> data_regions_;
};

TEST(RaceDetection, OutOfExtentStoreIsCaughtDynamically) {
  WildStoreWorkload w;
  const core::RunOutcome o = core::try_run_workload(
      core::MachineConfig{}, w, 1'000'000, nullptr, core::RunOptions{true});
  EXPECT_EQ(o.status, core::RunStatus::kRaceDetected);
  EXPECT_NE(o.message.find("outside registered extents"), std::string::npos);
  ASSERT_NE(o.stats.race_detector, nullptr);
  ASSERT_EQ(o.stats.race_detector->extent_violations().size(), 1u);
  EXPECT_EQ(o.stats.race_detector->extent_violations()[0].addr, 0x9000u);
}

// ---------------------------------------------------------------------------
// Real kernels: barrier-synchronized TLP variants must be race-free
// ---------------------------------------------------------------------------

TEST(RaceDetection, BarrierSynchronizedKernelsAreClean) {
  // One spin-barrier kernel and one sleeper-barrier (halt/IPI) kernel —
  // both exercise the §3.2 synchronization the detector must understand.
  for (const char* exp_name : {"lu.tlp-coarse.n64", "mm.tlp-pfetch.n64"}) {
    const host::ExperimentDef* def = host::find_experiment(exp_name);
    ASSERT_NE(def, nullptr) << exp_name;
    const core::RunOutcome o = run_def(*def, /*race_detect=*/true);
    EXPECT_EQ(o.status, core::RunStatus::kOk) << exp_name << ": " << o.message;
    ASSERT_NE(o.stats.race_detector, nullptr);
    EXPECT_TRUE(o.stats.race_detector->clean()) << exp_name;
  }
}

// ---------------------------------------------------------------------------
// Pure-observer contract: no counter bit changes when attached
// ---------------------------------------------------------------------------

TEST(RaceDetection, AttachingTheDetectorChangesNoCounterBits) {
  kernels::MatMulParams p;
  p.n = 32;
  p.tile = 16;
  p.mode = kernels::MmMode::kTlpPfetch;
  p.halt_barriers = true;  // IPI edges in play

  std::string json[2];
  Cycle cycles[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    kernels::MatMulWorkload w(p);
    const core::RunOutcome o = core::try_run_workload(
        core::MachineConfig{}, w, 100'000'000, nullptr,
        core::RunOptions{pass == 1});
    ASSERT_EQ(o.status, core::RunStatus::kOk) << o.message;
    json[pass] = core::RunReport::from(o.stats).to_json();
    cycles[pass] = o.stats.cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_EQ(json[0], json[1]);  // byte-identical report, detector attached
}

}  // namespace
}  // namespace smt
