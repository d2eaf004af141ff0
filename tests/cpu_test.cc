// Tests for the SMT core: functional correctness of the interpreter,
// timing behaviour of the scoreboard/ports, SMT resource sharing, and the
// pause/halt/IPI machinery the paper's synchronization layer relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/machine.h"
#include "isa/asm_builder.h"
#include "perfmon/events.h"
#include "sync/primitives.h"

namespace smt {
namespace {

using core::Machine;
using core::MachineConfig;
using isa::AsmBuilder;
using isa::BrCond;
using isa::FReg;
using isa::IReg;
using isa::Label;
using isa::Mem;
using perfmon::Event;

constexpr CpuId kC0 = CpuId::kCpu0;
constexpr CpuId kC1 = CpuId::kCpu1;

double cpi(const Machine& m, CpuId c) { return m.counters().cpi(c); }

// ---------------------------------------------------------------------------
// Functional correctness
// ---------------------------------------------------------------------------

TEST(Functional, IntegerArithmetic) {
  AsmBuilder a("int");
  a.imovi(IReg::R0, 20);
  a.imovi(IReg::R1, 3);
  a.iadd(IReg::R2, IReg::R0, IReg::R1);   // 23
  a.isub(IReg::R3, IReg::R0, IReg::R1);   // 17
  a.imul(IReg::R4, IReg::R0, IReg::R1);   // 60
  a.idiv(IReg::R5, IReg::R0, IReg::R1);   // 6
  a.iand(IReg::R6, IReg::R0, IReg::R1);   // 0
  a.ior(IReg::R7, IReg::R0, IReg::R1);    // 23
  a.ixori(IReg::R8, IReg::R0, 0xff);      // 235
  a.ishli(IReg::R9, IReg::R1, 4);         // 48
  a.ishri(IReg::R10, IReg::R0, 2);        // 5
  a.imov(IReg::R11, IReg::R2);            // 23
  a.exit();

  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  const auto& st = m.core().arch(kC0);
  EXPECT_EQ(st.ireg(IReg::R2), 23);
  EXPECT_EQ(st.ireg(IReg::R3), 17);
  EXPECT_EQ(st.ireg(IReg::R4), 60);
  EXPECT_EQ(st.ireg(IReg::R5), 6);
  EXPECT_EQ(st.ireg(IReg::R6), 0);
  EXPECT_EQ(st.ireg(IReg::R7), 23);
  EXPECT_EQ(st.ireg(IReg::R8), 235);
  EXPECT_EQ(st.ireg(IReg::R9), 48);
  EXPECT_EQ(st.ireg(IReg::R10), 5);
  EXPECT_EQ(st.ireg(IReg::R11), 23);
}

TEST(Functional, DivideByZeroIsDefined) {
  AsmBuilder a("div0");
  a.imovi(IReg::R0, 7);
  a.imovi(IReg::R1, 0);
  a.idiv(IReg::R2, IReg::R0, IReg::R1);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R2), 0);
}

TEST(Functional, FloatingPointArithmetic) {
  AsmBuilder a("fp");
  a.fmovi(FReg::F0, 6.0);
  a.fmovi(FReg::F1, 1.5);
  a.fadd(FReg::F2, FReg::F0, FReg::F1);
  a.fsub(FReg::F3, FReg::F0, FReg::F1);
  a.fmul(FReg::F4, FReg::F0, FReg::F1);
  a.fdiv(FReg::F5, FReg::F0, FReg::F1);
  a.fneg(FReg::F6, FReg::F1);
  a.fmov(FReg::F7, FReg::F2);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  const auto& st = m.core().arch(kC0);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F2), 7.5);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F3), 4.5);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F4), 9.0);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F5), 4.0);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F6), -1.5);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F7), 7.5);
}

TEST(Functional, LoopSum) {
  // sum = 0; for (i = 1; i <= 100; i++) sum += i;
  AsmBuilder a("loop");
  a.imovi(IReg::R0, 0);
  a.imovi(IReg::R1, 1);
  Label loop = a.here();
  a.iadd(IReg::R0, IReg::R0, IReg::R1);
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLe, IReg::R1, 100, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R0), 5050);
}

TEST(Functional, LoadStoreAddressing) {
  Machine m;
  m.memory().write_f64(0x8000 + 5 * 8, 2.5);
  AsmBuilder a("mem");
  a.imovi(IReg::R0, 0x8000);
  a.imovi(IReg::R1, 5);
  a.fload(FReg::F0, Mem::bi(IReg::R0, IReg::R1, 3));
  a.fmul(FReg::F0, FReg::F0, FReg::F0);
  a.fstore(FReg::F0, Mem::bd(IReg::R0, 8 * 9));
  a.imovi(IReg::R2, 77);
  a.store(IReg::R2, Mem::abs(0x9000));
  a.load(IReg::R3, Mem::abs(0x9000));
  a.exit();
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_DOUBLE_EQ(m.memory().read_f64(0x8000 + 9 * 8), 6.25);
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R3), 77);
}

TEST(Functional, BranchConditions) {
  AsmBuilder a("br");
  a.imovi(IReg::R0, 0);     // result bitmask
  a.imovi(IReg::R1, 5);
  Label l1 = a.label(), l2 = a.label(), l3 = a.label();
  a.bri(BrCond::kEq, IReg::R1, 5, l1);
  a.exit();                 // must be skipped
  a.bind(l1);
  a.iori(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kGt, IReg::R1, 5, l2);  // not taken
  a.iori(IReg::R0, IReg::R0, 2);
  a.bind(l2);
  a.bri(BrCond::kNe, IReg::R1, 4, l3);
  a.exit();
  a.bind(l3);
  a.iori(IReg::R0, IReg::R0, 4);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R0), 7);
}

// ---------------------------------------------------------------------------
// Timing behaviour
// ---------------------------------------------------------------------------

isa::Program fadd_chain(int chains, int count) {
  AsmBuilder a("chain");
  for (int c = 0; c < chains; ++c) a.fmovi(isa::freg_n(c), 0.0);
  a.fmovi(FReg::F8, 1.0);
  for (int i = 0; i < count; ++i) {
    const FReg t = isa::freg_n(i % chains);
    a.fadd(t, t, FReg::F8);
  }
  a.exit();
  return a.take();
}

TEST(Timing, DependentFaddChainRunsAtUnitLatency) {
  Machine m;
  m.load_program(kC0, fadd_chain(1, 2000));
  m.run();
  const double c = cpi(m, kC0);
  const double lat = static_cast<double>(m.config().core.lat_fadd);
  EXPECT_NEAR(c, lat, 0.5);
  // And the chain's result is correct.
  EXPECT_DOUBLE_EQ(m.core().arch(kC0).freg(FReg::F0), 2000.0);
}

TEST(Timing, SixChainsSaturateTheFpAddUnit) {
  Machine m;
  m.load_program(kC0, fadd_chain(6, 3000));
  m.run();
  // One FP_ADD issue per cycle is the structural bound.
  EXPECT_NEAR(cpi(m, kC0), 1.0, 0.25);
}

TEST(Timing, ThreeChainsLandInBetween) {
  Machine m;
  m.load_program(kC0, fadd_chain(3, 3000));
  m.run();
  const double c = cpi(m, kC0);
  EXPECT_GT(c, 1.2);
  EXPECT_LT(c, 2.6);  // ~ lat/3
}

TEST(Timing, FdivIsUnpipelined) {
  AsmBuilder a("fdiv");
  for (int c = 0; c < 6; ++c) a.fmovi(isa::freg_n(c), 1.0);
  a.fmovi(FReg::F8, 1.0);
  for (int i = 0; i < 600; ++i) {
    const FReg t = isa::freg_n(i % 6);  // six independent chains
    a.fdiv(t, t, FReg::F8);
  }
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  // Even with max ILP, the single unpipelined divider serializes: CPI is
  // close to the divide latency, insensitive to ILP.
  EXPECT_NEAR(cpi(m, kC0), static_cast<double>(m.config().core.lat_fdiv),
              2.0);
}

TEST(Timing, CoRunningFaddStreamsShareTheUnit) {
  // Two max-ILP fadd threads fight over the single FP_ADD port: per-thread
  // CPI doubles, cumulative throughput gains nothing (paper Fig. 1).
  Machine m;
  m.load_program(kC0, fadd_chain(6, 3000));
  m.load_program(kC1, fadd_chain(6, 3000));
  m.run();
  EXPECT_NEAR(cpi(m, kC0), 2.0, 0.5);
  EXPECT_NEAR(cpi(m, kC1), 2.0, 0.5);
}

TEST(Timing, CoRunningMinIlpFaddStreamsOverlapFreely) {
  // At min ILP each thread only needs one FP_ADD slot every lat_fadd
  // cycles; SMT interleaves them with no slowdown (paper Fig. 1: the
  // min-ILP dual-threaded case is a pure win).
  Machine s;
  s.load_program(kC0, fadd_chain(1, 2000));
  s.run();
  const double alone = cpi(s, kC0);

  Machine m;
  m.load_program(kC0, fadd_chain(1, 2000));
  m.load_program(kC1, fadd_chain(1, 2000));
  m.run();
  EXPECT_NEAR(cpi(m, kC0), alone, 0.6);
  EXPECT_NEAR(cpi(m, kC1), alone, 0.6);
}

TEST(Timing, LoadsHitL1AfterWarmup) {
  AsmBuilder a("l1");
  a.imovi(IReg::R0, 0x10000);
  a.imovi(IReg::R1, 0);
  Label loop = a.here();
  a.load(IReg::R2, Mem::bd(IReg::R0, 0));  // same line every time
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, 1000, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  // Exactly one bus-level miss; the independent loads that overlap with the
  // in-flight fill each count as (merged) L1 misses, so a handful of those
  // are expected before the line lands.
  EXPECT_EQ(m.counters().get(kC0, Event::kL2Misses), 1u);
  EXPECT_LT(m.counters().get(kC0, Event::kL1Misses), 100u);
  EXPECT_GT(m.counters().get(kC0, Event::kL1Misses), 0u);
}

TEST(Timing, StreamingLoadsMissPerLine) {
  const int kWords = 4096;  // 32 KiB > L1, < L2
  AsmBuilder a("stream");
  a.imovi(IReg::R0, 0x100000);
  a.imovi(IReg::R1, 0);
  Label loop = a.here();
  a.load(IReg::R2, Mem::bi(IReg::R0, IReg::R1, 3));
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, kWords, loop);
  a.exit();
  MachineConfig cfg;
  cfg.mem.hw_stream_prefetch = false;  // count raw compulsory misses
  Machine m(cfg);
  m.load_program(kC0, a.take());
  m.run();
  // One L2 (cold) miss per 64-byte line.
  EXPECT_EQ(m.counters().get(kC0, Event::kL2Misses),
            static_cast<uint64_t>(kWords / 8));
}

TEST(Timing, HardwareStreamPrefetcherCoversSequentialStreams) {
  // The same sequential sweep with the Netburst-style stream engine on:
  // most lines are fetched ahead of the demand accesses, so bus-level
  // demand misses collapse and the sweep completes faster.
  const int kWords = 4096;
  auto build = [&] {
    AsmBuilder a("stream");
    a.imovi(IReg::R0, 0x100000);
    a.imovi(IReg::R1, 0);
    Label loop = a.here();
    a.load(IReg::R2, Mem::bi(IReg::R0, IReg::R1, 3));
    a.iaddi(IReg::R1, IReg::R1, 1);
    a.bri(BrCond::kLt, IReg::R1, kWords, loop);
    a.exit();
    return a.take();
  };
  MachineConfig off;
  off.mem.hw_stream_prefetch = false;
  Machine moff(off);
  moff.load_program(kC0, build());
  moff.run();

  Machine mon;  // default: prefetcher on
  mon.load_program(kC0, build());
  mon.run();

  // Most demand misses disappear (the stream engine fetches ahead). The
  // sweep itself is bus-bandwidth-bound, so wall time does not regress but
  // need not improve.
  EXPECT_LT(mon.counters().get(kC0, Event::kL2Misses),
            moff.counters().get(kC0, Event::kL2Misses) / 4);
  EXPECT_LE(mon.cycles(), moff.cycles());
}

// ---------------------------------------------------------------------------
// SMT resource semantics
// ---------------------------------------------------------------------------

TEST(Smt, StoreBufferStallsAreCountedUnderPressure) {
  // A long stream of stores that miss L2 drains slowly and fills the
  // partitioned store buffer; the allocator must record stall cycles.
  AsmBuilder a("stores");
  a.imovi(IReg::R0, 0x200000);
  a.imovi(IReg::R1, 0);
  a.imovi(IReg::R2, 1);
  Label loop = a.here();
  a.store(IReg::R2, Mem::bi(IReg::R0, IReg::R1, 3));
  a.iaddi(IReg::R1, IReg::R1, 8);  // one store per line
  a.bri(BrCond::kLt, IReg::R1, 3000 * 8, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_GT(m.counters().get(kC0, Event::kStoreBufferStallCycles), 100u);
  EXPECT_GE(m.counters().get(kC0, Event::kResourceStallCycles),
            m.counters().get(kC0, Event::kStoreBufferStallCycles));
}

TEST(Smt, InstructionAndUopCountsMatchProgram) {
  AsmBuilder a("count");
  a.imovi(IReg::R0, 0);
  Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, 50, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  // imovi + 50*(iaddi + bri); exit does not retire.
  EXPECT_EQ(m.counters().get(kC0, Event::kInstrRetired), 101u);
  EXPECT_EQ(m.counters().get(kC0, Event::kUopsRetired), 101u);
  EXPECT_EQ(m.counters().get(kC0, Event::kBranchesRetired), 50u);
}

TEST(Smt, DynamicPartitioningNeverSlowsCoRunningThreads) {
  // The counterfactual dynamically-shared machine must be at least as fast
  // as the statically partitioned one for identical co-running threads
  // (it strictly relaxes the per-thread limits).
  auto run = [](bool static_part) {
    MachineConfig cfg;
    cfg.core.static_partitioning = static_part;
    Machine m(cfg);
    m.load_program(kC0, fadd_chain(6, 4000));
    m.load_program(kC1, fadd_chain(6, 4000));
    m.run();
    return m.cycles();
  };
  EXPECT_LE(run(false), run(true));
}

TEST(Smt, PartitioningDoesNotAffectSingleThread) {
  auto run = [](bool static_part) {
    MachineConfig cfg;
    cfg.core.static_partitioning = static_part;
    Machine m(cfg);
    m.load_program(kC0, fadd_chain(6, 4000));
    m.run();
    return m.cycles();
  };
  // A lone context always owns the full structures either way.
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// pause / halt / IPI / spin-wait
// ---------------------------------------------------------------------------

isa::Program spin_then_read(Addr flag, Addr data, sync::SpinKind kind) {
  AsmBuilder a("spinner");
  sync::emit_spin_until_eq(a, flag, IReg::R0, 1, kind);
  a.load(IReg::R1, Mem::abs(data));
  a.exit();
  return a.take();
}

isa::Program work_then_signal(Addr flag, Addr data, int work) {
  AsmBuilder a("worker");
  a.imovi(IReg::R0, 0);
  Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, work, loop);
  a.imovi(IReg::R1, 42);
  a.store(IReg::R1, Mem::abs(data));
  sync::emit_flag_set(a, flag, IReg::R2, 1);
  a.exit();
  return a.take();
}

TEST(Sync, SpinWaitHandsOffData) {
  const Addr flag = 0x40000, data = 0x40040;
  Machine m;
  m.load_program(kC0, work_then_signal(flag, data, 500));
  m.load_program(kC1, spin_then_read(flag, data, sync::SpinKind::kPause));
  m.run();
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 42);
  EXPECT_GT(m.counters().get(kC1, Event::kPausesExecuted), 0u);
}

TEST(Sync, TightSpinTriggersMachineClearOnExit) {
  const Addr flag = 0x40000, data = 0x40040;
  Machine m;
  m.load_program(kC0, work_then_signal(flag, data, 500));
  m.load_program(kC1, spin_then_read(flag, data, sync::SpinKind::kTight));
  m.run();
  EXPECT_GE(m.counters().get(kC1, Event::kMachineClears), 1u);
}

TEST(Sync, PauseReducesSpinResourceConsumption) {
  const Addr flag = 0x40000, data = 0x40040;
  uint64_t uops[2];
  for (int k = 0; k < 2; ++k) {
    Machine m;
    const auto kind = k == 0 ? sync::SpinKind::kTight : sync::SpinKind::kPause;
    m.load_program(kC0, work_then_signal(flag, data, 2000));
    m.load_program(kC1, spin_then_read(flag, data, kind));
    m.run();
    uops[k] = m.counters().get(kC1, Event::kUopsRetired);
  }
  // The pause spinner executes far fewer uops while waiting.
  EXPECT_LT(uops[1] * 3, uops[0]);
}

TEST(Sync, HaltSleepsUntilIpi) {
  const Addr flag = 0x40000;
  // Thread 1: publish "sleeping", halt, then read the flag after waking.
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag + 64, IReg::R0, 1);
  s.halt();
  s.load(IReg::R1, Mem::abs(flag));
  s.exit();
  // Thread 0: do work, set flag, wait for sleeper to be asleep, wake it.
  AsmBuilder w("waker");
  sync::emit_flag_set(w, flag, IReg::R0, 7);
  sync::emit_spin_until_eq(w, flag + 64, IReg::R1, 1, sync::SpinKind::kPause);
  w.ipi();
  w.exit();
  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 7);
  EXPECT_GT(m.counters().get(kC1, Event::kCyclesHalted), 0u);
  EXPECT_EQ(m.counters().get(kC1, Event::kHaltTransitions), 1u);
  EXPECT_EQ(m.counters().get(kC0, Event::kIpisSent), 1u);
}

TEST(Sync, HaltTransitionsCostCycles) {
  const Addr flag = 0x40000;
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag, IReg::R0, 1);
  s.halt();
  s.exit();
  AsmBuilder w("waker");
  sync::emit_spin_until_eq(w, flag, IReg::R0, 1, sync::SpinKind::kPause);
  w.ipi();
  w.exit();
  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run();
  const auto& cc = m.config().core;
  EXPECT_GE(m.cycles(), cc.halt_enter_cost + cc.halt_wake_cost);
}

TEST(Sync, XchgLockProvidesMutualExclusion) {
  // Both threads do read-modify-write increments on a shared counter under
  // an xchg spin lock; without mutual exclusion updates would be lost.
  const Addr lock = 0x50000, counter = 0x50040;
  const int kIncs = 200;
  auto make = [&](const char* name) {
    AsmBuilder a(name);
    a.imovi(IReg::R3, 0);
    Label loop = a.here();
    sync::emit_lock_acquire(a, lock, IReg::R0, sync::SpinKind::kPause);
    a.load(IReg::R1, Mem::abs(counter));
    a.iaddi(IReg::R1, IReg::R1, 1);
    a.store(IReg::R1, Mem::abs(counter));
    sync::emit_lock_release(a, lock, IReg::R0);
    a.iaddi(IReg::R3, IReg::R3, 1);
    a.bri(BrCond::kLt, IReg::R3, kIncs, loop);
    a.exit();
    return a.take();
  };
  Machine m;
  m.load_program(kC0, make("inc0"));
  m.load_program(kC1, make("inc1"));
  m.run();
  EXPECT_EQ(m.memory().read_i64(counter), 2 * kIncs);
}

TEST(Sync, SenseReversingBarrierOrdersEpisodes) {
  mem::MemoryLayout layout(0x60000);
  sync::TwoThreadBarrier bar(layout, "b");
  const Addr a0 = layout.alloc("a0", 8);
  const Addr a1 = layout.alloc("a1", 8);

  // Thread 0 writes before each barrier; thread 1 reads after it; three
  // episodes verify sense reversal works repeatedly.
  AsmBuilder p0("prod");
  bar.emit_init(p0, IReg::R15);
  for (int e = 0; e < 3; ++e) {
    p0.imovi(IReg::R1, 10 + e);
    p0.store(IReg::R1, Mem::abs(a0));
    bar.emit_wait(p0, 0, IReg::R15, IReg::R0, sync::SpinKind::kPause);
    bar.emit_wait(p0, 0, IReg::R15, IReg::R0, sync::SpinKind::kPause);
  }
  p0.exit();

  AsmBuilder p1("cons");
  bar.emit_init(p1, IReg::R15);
  p1.imovi(IReg::R5, 0);
  for (int e = 0; e < 3; ++e) {
    bar.emit_wait(p1, 1, IReg::R15, IReg::R0, sync::SpinKind::kPause);
    p1.load(IReg::R1, Mem::abs(a0));
    p1.iadd(IReg::R5, IReg::R5, IReg::R1);  // accumulate 10+11+12 = 33
    p1.store(IReg::R5, Mem::abs(a1));
    bar.emit_wait(p1, 1, IReg::R15, IReg::R0, sync::SpinKind::kPause);
  }
  p1.exit();

  Machine m;
  m.load_program(kC0, p0.take());
  m.load_program(kC1, p1.take());
  m.run();
  EXPECT_EQ(m.memory().read_i64(a1), 33);
}

TEST(Sync, SleeperBarrierWakesAndSynchronizes) {
  mem::MemoryLayout layout(0x60000);
  sync::TwoThreadBarrier bar(layout, "hb");
  const Addr data = layout.alloc("data", 8);

  // Sleeper (thread 1) arrives first (no work) and halts; waker computes,
  // then wakes it; sleeper then reads the waker's data.
  AsmBuilder w("waker");
  bar.emit_init(w, IReg::R15);
  w.imovi(IReg::R0, 0);
  Label loop = w.here();
  w.iaddi(IReg::R0, IReg::R0, 1);
  w.bri(BrCond::kLt, IReg::R0, 3000, loop);
  w.imovi(IReg::R1, 123);
  w.store(IReg::R1, Mem::abs(data));
  bar.emit_wait_waker(w, 0, IReg::R15, IReg::R2, sync::SpinKind::kPause);
  w.exit();

  AsmBuilder s("sleeper");
  bar.emit_init(s, IReg::R15);
  bar.emit_wait_sleeper(s, 1, IReg::R15, IReg::R2);
  s.load(IReg::R3, Mem::abs(data));
  s.exit();

  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R3), 123);
  EXPECT_EQ(m.counters().get(kC1, Event::kHaltTransitions), 1u);
  EXPECT_GT(m.counters().get(kC1, Event::kCyclesHalted), 0u);
}

TEST(SyncDeath, LostWakeupIsCaughtByTheRuntime) {
  // A halt with no IPI ever coming must abort (all contexts asleep), not
  // hang forever.
  AsmBuilder s("stuck");
  s.halt();
  s.exit();
  Machine m;
  m.load_program(kC0, s.take());
  EXPECT_DEATH(m.run(), "asleep");
}

// ---------------------------------------------------------------------------
// run_until_any_done
// ---------------------------------------------------------------------------

TEST(Runner, RunUntilAnyDoneReturnsTheFasterThread) {
  Machine m;
  m.load_program(kC0, fadd_chain(6, 200));
  m.load_program(kC1, fadd_chain(6, 20000));
  const CpuId first = m.run_until_any_done();
  EXPECT_EQ(first, kC0);
  EXPECT_TRUE(m.core().done(kC0));
  EXPECT_FALSE(m.core().done(kC1));
}

// ---------------------------------------------------------------------------
// Integer divide issue port (Netburst port 1, shared with the FP units)
// ---------------------------------------------------------------------------

isa::Program idiv_chain(int chains, int count) {
  AsmBuilder a("idiv");
  for (int c = 0; c < chains; ++c) a.imovi(isa::ireg_n(c), 1 << 20);
  a.imovi(IReg::R8, 1);
  for (int i = 0; i < count; ++i) {
    const IReg t = isa::ireg_n(i % chains);
    a.idiv(t, t, IReg::R8);  // t /= 1: value-preserving, dependence-carrying
  }
  a.exit();
  return a.take();
}

isa::Program fdiv_chain(int chains, int count) {
  AsmBuilder a("fdiv");
  for (int c = 0; c < chains; ++c) a.fmovi(isa::freg_n(c), 1.0);
  a.fmovi(FReg::F8, 1.0);
  for (int i = 0; i < count; ++i) {
    const FReg t = isa::freg_n(i % chains);
    a.fdiv(t, t, FReg::F8);
  }
  a.exit();
  return a.take();
}

// Fully independent divides (constant sources, rotating dead targets): with
// a pipelined divider, throughput is limited only by the issue port.
isa::Program idiv_independent(int count) {
  AsmBuilder a("idiv-ind");
  a.imovi(IReg::R8, 3);
  a.imovi(IReg::R9, 1 << 20);
  for (int i = 0; i < count; ++i) {
    a.idiv(isa::ireg_n(i % 6), IReg::R9, IReg::R8);
  }
  a.exit();
  return a.take();
}

isa::Program fdiv_independent(int count) {
  AsmBuilder a("fdiv-ind");
  a.fmovi(FReg::F8, 3.0);
  a.fmovi(FReg::F9, 1.0);
  for (int i = 0; i < count; ++i) {
    a.fdiv(isa::freg_n(i % 6), FReg::F9, FReg::F8);
  }
  a.exit();
  return a.take();
}

TEST(IdivPort, PipelinedIdivStreamIsIssuePortBound) {
  // With the (hypothetical) pipelined divider, six independent idiv chains
  // are limited by the single FP issue port: one divide per cycle, CPI ~1.
  // A divider that issued without consuming port capacity would run at the
  // 3-wide retire bound instead (CPI ~0.33) — the regression this guards.
  MachineConfig cfg;
  cfg.core.idiv_unpipelined = false;
  Machine m{cfg};
  m.load_program(kC0, idiv_independent(1200));
  m.run();
  EXPECT_GT(cpi(m, kC0), 0.85);
  EXPECT_LT(cpi(m, kC0), 1.3);
}

TEST(IdivPort, UnpipelinedIdivStreamSerializesAtDivideLatency) {
  Machine m;
  m.load_program(kC0, idiv_chain(6, 400));
  m.run();
  EXPECT_NEAR(cpi(m, kC0), static_cast<double>(m.config().core.lat_idiv),
              2.0);
}

TEST(IdivPort, CoScheduledPipelinedDivideStreamsShareTheFpPort) {
  // Pipelined idiv beside pipelined fdiv: both feed through the one FP
  // issue port, so each gets every other cycle (CPI ~2 apiece). Before the
  // port fix the idiv stream issued for free and both ran at CPI ~1.
  MachineConfig cfg;
  cfg.core.idiv_unpipelined = false;
  cfg.core.fdiv_unpipelined = false;
  Machine m{cfg};
  m.load_program(kC0, idiv_independent(1200));
  m.load_program(kC1, fdiv_independent(1200));
  m.run_until_any_done();
  EXPECT_GT(cpi(m, kC0), 1.6);
  EXPECT_GT(cpi(m, kC1), 1.6);
}

TEST(IdivPort, CoScheduledUnpipelinedDividersBarelyInterfere) {
  // Default (unpipelined) dividers: each stream is bound by its own divide
  // unit, and one divide every ~40-56 cycles leaves the shared port nearly
  // idle — co-execution stays near the stand-alone latencies (the paper's
  // Figure 2 shows idiv/fdiv pairs nearly unaffected).
  Machine m;
  m.load_program(kC0, idiv_chain(6, 200));
  m.load_program(kC1, fdiv_chain(6, 200));
  m.run_until_any_done();
  EXPECT_NEAR(cpi(m, kC0), static_cast<double>(m.config().core.lat_idiv),
              4.0);
  EXPECT_NEAR(cpi(m, kC1), static_cast<double>(m.config().core.lat_fdiv),
              4.0);
}

// ---------------------------------------------------------------------------
// Issue-stage semantics: same-cycle forwarding and the scheduler window
// ---------------------------------------------------------------------------

/// Records every issue and every issue-stage block (kPortConflict,
/// kDividerBusy) the core reports, in order.
class IssueRecorder : public cpu::PipelineObserver {
 public:
  struct Issue {
    CpuId cpu;
    uint32_t pc;
    Cycle done;
    Cycle now;
  };
  struct Block {
    CpuId cpu;
    cpu::BlockReason reason;
    uint32_t pc;
    bool sibling;
    int port;
    Cycle now;
  };

  bool wants_issue_blocks() const override { return true; }

  void on_issue(CpuId cpu, const cpu::DynUop& uop, int /*port*/,
                Cycle done, Cycle now) override {
    issues_.push_back({cpu, uop.pc, done, now});
  }
  void on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc,
                bool sibling, int port, Cycle /*cycles*/,
                Cycle now) override {
    if (reason == cpu::BlockReason::kPortConflict ||
        reason == cpu::BlockReason::kDividerBusy) {
      blocks_.push_back({cpu, reason, pc, sibling, port, now});
    }
  }

  const std::vector<Issue>& issues() const { return issues_; }

  /// The cycle `cpu`'s (single) dynamic instance of `pc` issued in.
  Cycle cycle_of(uint32_t pc, CpuId cpu = kC0) const {
    for (const Issue& i : issues_) {
      if (i.cpu == cpu && i.pc == pc) return i.now;
    }
    ADD_FAILURE() << "cpu" << idx(cpu) << " pc " << pc << " never issued";
    return 0;
  }
  /// `cpu`'s issues in cycle `now`, as pcs in issue order.
  std::vector<uint32_t> issued_in(CpuId cpu, Cycle now) const {
    std::vector<uint32_t> pcs;
    for (const Issue& i : issues_) {
      if (i.cpu == cpu && i.now == now) pcs.push_back(i.pc);
    }
    return pcs;
  }
  /// The issue-stage blocks reported for the cycle `now`.
  std::vector<Block> blocks_in(Cycle now) const {
    std::vector<Block> out;
    for (const Block& b : blocks_) {
      if (b.now == now) out.push_back(b);
    }
    return out;
  }

 private:
  std::vector<Issue> issues_;
  std::vector<Block> blocks_;
};

TEST(IssueStage, DependentSimpleAluUopsIssueInOneCycle) {
  // lat_simple_alu = 0: an iadd's result is forwarded within the cycle, so
  // its dependent issues in the same cycle. A candidate list frozen at the
  // start of the cycle would push every link of the chain a cycle apart.
  AsmBuilder a("iadd-chain");
  a.imovi(IReg::R0, 0);
  a.imovi(IReg::R1, 1);
  const uint32_t first = static_cast<uint32_t>(a.pos());
  constexpr int kLinks = 30;
  for (int i = 0; i < kLinks; ++i) a.iadd(IReg::R0, IReg::R0, IReg::R1);
  a.exit();
  Machine m;
  ASSERT_EQ(m.config().core.lat_simple_alu, 0u);
  IssueRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R0), kLinks);

  std::map<Cycle, int> chain_issues_per_cycle;
  for (const IssueRecorder::Issue& i : rec.issues()) {
    if (i.pc >= first && i.pc < first + kLinks) {
      EXPECT_EQ(i.done, i.now);  // zero latency
      ++chain_issues_per_cycle[i.now];
    }
  }
  int widest = 0;
  for (const auto& [cycle, n] : chain_issues_per_cycle) {
    widest = std::max(widest, n);
  }
  EXPECT_GT(widest, 1);
  // Every link still issues after its producer (program order here).
  Cycle prev = 0;
  for (int i = 0; i < kLinks; ++i) {
    const Cycle c = rec.cycle_of(first + static_cast<uint32_t>(i));
    EXPECT_GE(c, prev);
    prev = c;
  }
}

/// fdiv f0 (long latency), then `waiters` fadds that read f0, then one
/// iadd that is ready long before the divide completes. Returns the
/// program and, through the out-params, the pcs of the first fadd and of
/// the iadd.
isa::Program window_probe(int waiters, uint32_t* first_fadd,
                          uint32_t* ready_iadd) {
  AsmBuilder a("window-probe");
  a.imovi(IReg::R0, 0);
  a.imovi(IReg::R1, 1);
  a.fmovi(FReg::F0, 1.0);
  a.fmovi(FReg::F8, 1.0);
  a.fdiv(FReg::F0, FReg::F0, FReg::F8);
  *first_fadd = static_cast<uint32_t>(a.pos());
  for (int i = 0; i < waiters; ++i) {
    a.fadd(isa::freg_n(1 + i), FReg::F0, FReg::F8);
  }
  *ready_iadd = static_cast<uint32_t>(a.pos());
  a.iadd(IReg::R0, IReg::R0, IReg::R1);
  a.exit();
  return a.take();
}

TEST(IssueStage, WindowCountsOnlyUnissuedEntries) {
  // Window 2, filled by the two fadds waiting on the divide: the ready iadd
  // behind them cannot issue until one of them does. When the first fadd
  // issues, the window slides past it within the same cycle (issued uops
  // do not hold a slot), the second fadd loses the FP port, and the iadd
  // issues in that very cycle.
  uint32_t fadd = 0, iadd = 0;
  const isa::Program p = window_probe(2, &fadd, &iadd);
  MachineConfig cfg;
  cfg.core.sched_window = 2;
  Machine m{cfg};
  IssueRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, p);
  m.run();
  const Cycle fadd_cycle = rec.cycle_of(fadd);
  const uint32_t fdiv = fadd - 1;
  EXPECT_GE(fadd_cycle, rec.cycle_of(fdiv) + m.config().core.lat_fdiv);
  EXPECT_EQ(rec.cycle_of(iadd), fadd_cycle);
  EXPECT_EQ(rec.cycle_of(fadd + 1), fadd_cycle + 1);

  // With the default window the iadd is in view from the start and issues
  // long before the divide completes.
  Machine wide;
  IssueRecorder wide_rec;
  wide.core().add_observer(&wide_rec);
  wide.load_program(kC0, p);
  wide.run();
  EXPECT_LT(wide_rec.cycle_of(iadd), wide_rec.cycle_of(fadd));
}

TEST(IssueStage, PortDeniedReadyUopStillHoldsAWindowSlot) {
  // Three fadds become ready together. The first takes the FP port; the
  // other two are ready but denied the port, and they fill the window of 2,
  // so the iadd behind them waits a cycle — until the second fadd issues.
  uint32_t fadd = 0, iadd = 0;
  const isa::Program p = window_probe(3, &fadd, &iadd);
  MachineConfig cfg;
  cfg.core.sched_window = 2;
  Machine m{cfg};
  IssueRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, p);
  m.run();
  const Cycle fadd_cycle = rec.cycle_of(fadd);
  EXPECT_EQ(rec.cycle_of(fadd + 1), fadd_cycle + 1);
  EXPECT_EQ(rec.cycle_of(fadd + 2), fadd_cycle + 2);
  EXPECT_EQ(rec.cycle_of(iadd), fadd_cycle + 1);
}

/// Each context interleaves independent idivs and fdivs (constant sources,
/// rotating dead targets), so both unpipelined dividers stay contended by
/// both contexts for the whole run.
isa::Program mixed_divides(int count) {
  AsmBuilder a("div-mix");
  a.imovi(IReg::R8, 3);
  a.imovi(IReg::R9, 1 << 20);
  a.fmovi(FReg::F8, 3.0);
  a.fmovi(FReg::F9, 1.0);
  for (int i = 0; i < count; ++i) {
    a.idiv(isa::ireg_n(i % 6), IReg::R9, IReg::R8);
    a.fdiv(isa::freg_n(i % 6), FReg::F9, FReg::F8);
  }
  a.exit();
  return a.take();
}

/// Tracks which context issued the last divide of each class, and checks
/// every kDividerBusy block against it: while an unpipelined divider is
/// busy, the last same-class divide issued is the one occupying it, so the
/// block is sibling-blamed exactly when that divide came from the other
/// context.
class DividerBlameChecker : public cpu::PipelineObserver {
 public:
  enum Class { kIdiv, kFdiv, kNumClasses };

  explicit DividerBlameChecker(std::array<const isa::Program*, 2> progs)
      : progs_(progs) {}

  bool wants_issue_blocks() const override { return true; }

  void on_issue(CpuId cpu, const cpu::DynUop& uop, int /*port*/,
                Cycle /*done*/, Cycle /*now*/) override {
    const int c = class_of(uop.op);
    if (c >= 0) last_issuer_[c] = idx(cpu);
  }

  void on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc,
                bool sibling, int port, Cycle /*cycles*/,
                Cycle now) override {
    if (reason != cpu::BlockReason::kDividerBusy) return;
    const int c = class_of(progs_[idx(cpu)]->at(pc).op);
    ASSERT_GE(c, 0) << "divider block on a non-divide, pc " << pc;
    ASSERT_GE(last_issuer_[c], 0) << "divider busy before any divide issued";
    EXPECT_EQ(sibling, last_issuer_[c] == idx(other(cpu)))
        << "cpu" << idx(cpu) << " pc " << pc << " cycle " << now;
    EXPECT_EQ(port, -1);
    ++blocks_[c][sibling ? 1 : 0];
  }

  /// kDividerBusy blocks of class `c`, self- (false) or sibling-blamed.
  int blocks(Class c, bool sibling) const { return blocks_[c][sibling]; }

 private:
  static int class_of(isa::Opcode op) {
    if (op == isa::Opcode::kIDiv) return kIdiv;
    if (op == isa::Opcode::kFDiv) return kFdiv;
    return -1;
  }

  std::array<const isa::Program*, 2> progs_;
  std::array<int, kNumClasses> last_issuer_{-1, -1};
  std::array<std::array<int, 2>, kNumClasses> blocks_{};
};

TEST(IssueStage, DividerBusyBlameNamesTheDividesOwner) {
  // Two contexts, each running independent idivs and fdivs: every divider
  // block must blame the context whose divide occupies that very divider,
  // not the other divider's owner.
  const isa::Program p0 = mixed_divides(40);
  const isa::Program p1 = mixed_divides(40);
  Machine m;
  ASSERT_TRUE(m.config().core.idiv_unpipelined);
  ASSERT_TRUE(m.config().core.fdiv_unpipelined);
  DividerBlameChecker checker({&p0, &p1});
  m.core().add_observer(&checker);
  m.load_program(kC0, p0);
  m.load_program(kC1, p1);
  m.run();
  using Checker = DividerBlameChecker;
  for (const Checker::Class c : {Checker::kIdiv, Checker::kFdiv}) {
    SCOPED_TRACE(c == Checker::kIdiv ? "idiv" : "fdiv");
    EXPECT_GT(checker.blocks(c, /*sibling=*/false), 0);
    EXPECT_GT(checker.blocks(c, /*sibling=*/true), 0);
  }
}

/// fdiv f0, then two fadds and one fmov that all read f0: when the divide
/// completes the three become ready together, and the fmov (FP-move port)
/// is younger than the second fadd (FP port). Returns the program and,
/// through the out-param, the pc of the first fadd.
isa::Program fp_port_probe(uint32_t* first_fadd) {
  AsmBuilder a("fp-port-probe");
  a.fmovi(FReg::F0, 1.0);
  a.fmovi(FReg::F8, 1.0);
  a.fdiv(FReg::F0, FReg::F0, FReg::F8);
  *first_fadd = static_cast<uint32_t>(a.pos());
  a.fadd(FReg::F1, FReg::F0, FReg::F8);
  a.fadd(FReg::F2, FReg::F0, FReg::F8);
  a.fmov(FReg::F3, FReg::F0);
  a.exit();
  return a.take();
}

TEST(IssueStage, PortDeniedUopBehindAYoungerIssueIsTheBlockedUop) {
  // In the cycle the divide completes, the first fadd takes the FP port,
  // the second is ready but denied it, and the younger fmov issues on the
  // FP-move port past it. The cycle's issue block is that second fadd, on
  // the FP port, self-blamed, although the scan ended beyond it; the next
  // cycle it issues and nothing is blocked.
  uint32_t fadd = 0;
  const isa::Program p = fp_port_probe(&fadd);
  Machine m;
  IssueRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, p);
  m.run();
  const Cycle d = rec.cycle_of(fadd);
  ASSERT_EQ(rec.issued_in(kC0, d),
            (std::vector<uint32_t>{fadd, fadd + 2}));  // fadd, then fmov
  EXPECT_EQ(rec.cycle_of(fadd + 1), d + 1);
  const std::vector<IssueRecorder::Block> blocks = rec.blocks_in(d);
  ASSERT_EQ(blocks.size(), 1u);
  const IssueRecorder::Block& b = blocks.front();
  EXPECT_EQ(b.cpu, kC0);
  EXPECT_EQ(b.reason, cpu::BlockReason::kPortConflict);
  EXPECT_EQ(b.pc, fadd + 1);
  EXPECT_EQ(b.port, static_cast<int>(cpu::IssuePort::kFp));
  EXPECT_FALSE(b.sibling);
  EXPECT_TRUE(rec.blocks_in(d + 1).empty());
}

TEST(IssueStage, IssueBudgetExhaustionBlamesTheSiblingWithNoPort) {
  // Issue width 3. Context 0 runs the FP-port probe; context 1 streams
  // independent iadds, so it has ready uops every cycle and owns the
  // issue slots while context 0 waits on its divide. In the cycle the
  // divide completes, context 0 issues first: its first fadd, then one of
  // context 1's iadds, then context 0's fmov past its port-denied second
  // fadd, which spends the budget. Context 1's next ready iadd never got
  // a scan: its block is a port conflict on no port (issue bandwidth),
  // blamed on the sibling that took the slots. Context 0's block is its
  // second fadd on the FP port, self-blamed.
  uint32_t fadd = 0;
  const isa::Program p0 = fp_port_probe(&fadd);
  AsmBuilder a("iadd-stream");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 2);
  for (int i = 0; i < 400; ++i) {
    a.iadd(isa::ireg_n(2 + i % 6), IReg::R0, IReg::R1);
  }
  a.exit();
  const isa::Program p1 = a.take();
  MachineConfig cfg;
  cfg.core.issue_width = 3;
  Machine m{cfg};
  IssueRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, p0);
  m.load_program(kC1, p1);
  m.run();
  const Cycle d = rec.cycle_of(fadd);
  ASSERT_EQ(rec.issued_in(kC0, d), (std::vector<uint32_t>{fadd, fadd + 2}));
  const std::vector<uint32_t> sib = rec.issued_in(kC1, d);
  ASSERT_EQ(sib.size(), 1u);
  const std::vector<IssueRecorder::Block> blocks = rec.blocks_in(d);
  ASSERT_EQ(blocks.size(), 2u);
  const IssueRecorder::Block& b0 = blocks[0];
  EXPECT_EQ(b0.cpu, kC0);
  EXPECT_EQ(b0.reason, cpu::BlockReason::kPortConflict);
  EXPECT_EQ(b0.pc, fadd + 1);
  EXPECT_EQ(b0.port, static_cast<int>(cpu::IssuePort::kFp));
  EXPECT_FALSE(b0.sibling);
  const IssueRecorder::Block& b1 = blocks[1];
  EXPECT_EQ(b1.cpu, kC1);
  EXPECT_EQ(b1.reason, cpu::BlockReason::kPortConflict);
  EXPECT_EQ(b1.pc, sib[0] + 1);  // the oldest unissued iadd
  EXPECT_EQ(b1.port, -1);
  EXPECT_TRUE(b1.sibling);
}

// ---------------------------------------------------------------------------
// Wakeup: a consumer becomes ready exactly when its last producer's result
// does, however its dispatch interleaves with the producers' issue
// ---------------------------------------------------------------------------

/// Records the dispatch, issue, done and retire cycles of every pc of one
/// context (the probes below run each pc once).
class LifetimeRecorder final : public cpu::PipelineObserver {
 public:
  struct Life {
    Cycle dispatched = 0;
    Cycle issued = 0;
    Cycle done = 0;
    Cycle retired = 0;
  };

  void on_dispatch(CpuId cpu, const cpu::DynUop& uop, Cycle now) override {
    if (cpu == kC0) lives_[uop.pc].dispatched = now;
  }
  void on_issue(CpuId cpu, const cpu::DynUop& uop, int /*port*/, Cycle done,
                Cycle now) override {
    if (cpu != kC0) return;
    lives_[uop.pc].issued = now;
    lives_[uop.pc].done = done;
  }
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int /*uops*/,
                 Cycle now) override {
    if (cpu == kC0) lives_[uop.pc].retired = now;
  }

  const Life& of(uint32_t pc) const {
    static const Life kNever;
    const auto it = lives_.find(pc);
    if (it != lives_.end()) return it->second;
    ADD_FAILURE() << "pc " << pc << " never dispatched";
    return kNever;
  }

 private:
  std::map<uint32_t, Life> lives_;
};

/// Runs `p` alone on context 0 of a default machine.
LifetimeRecorder record_lifetimes(const isa::Program& p) {
  Machine m;
  LifetimeRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, p);
  m.run();
  return rec;
}

TEST(IssueStage, ConsumerOfTwoProducersIssuesAtTheLaterDone) {
  // Two producers that issue in different cycles, once with the earlier
  // issue finishing last (a divide, then a short fmul/fadd chain) and once
  // with the later issue finishing last (an fadd, then a divide behind a
  // short fmul chain). Either way the consumer issues in the cycle the
  // later result is done — not when the last producer issues, and not
  // when the first result is done.
  for (const bool earlier_finishes_last : {true, false}) {
    SCOPED_TRACE(earlier_finishes_last ? "earlier issue finishes last"
                                       : "later issue finishes last");
    AsmBuilder a("two-producers");
    a.fmovi(FReg::F0, 2.0);
    a.fmovi(FReg::F1, 3.0);
    a.fmovi(FReg::F8, 1.0);
    const uint32_t early = static_cast<uint32_t>(a.pos());
    if (earlier_finishes_last) {
      a.fdiv(FReg::F0, FReg::F0, FReg::F8);
    } else {
      a.fadd(FReg::F0, FReg::F0, FReg::F8);
    }
    a.fmul(FReg::F1, FReg::F1, FReg::F8);
    a.fmul(FReg::F1, FReg::F1, FReg::F8);
    const uint32_t late = static_cast<uint32_t>(a.pos());
    if (earlier_finishes_last) {
      a.fadd(FReg::F1, FReg::F1, FReg::F8);
    } else {
      a.fdiv(FReg::F1, FReg::F1, FReg::F8);
    }
    const uint32_t consumer = static_cast<uint32_t>(a.pos());
    a.fadd(FReg::F2, FReg::F0, FReg::F1);
    a.exit();
    const LifetimeRecorder rec = record_lifetimes(a.take());
    const LifetimeRecorder::Life& e = rec.of(early);
    const LifetimeRecorder::Life& l = rec.of(late);
    ASSERT_LT(e.issued, l.issued);
    ASSERT_EQ(e.done > l.done, earlier_finishes_last);
    EXPECT_EQ(rec.of(consumer).issued, std::max(e.done, l.done));
  }
}

TEST(IssueStage, ConsumerDispatchedAfterItsProducerIssuedWaitsForItsDone) {
  // The divide issues before its consumer reaches the ROB (thirty
  // independent iadds sit between them), and completes after.
  AsmBuilder a("issued-producer");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 2);
  a.fmovi(FReg::F0, 2.0);
  a.fmovi(FReg::F8, 1.0);
  const uint32_t producer = static_cast<uint32_t>(a.pos());
  a.fdiv(FReg::F0, FReg::F0, FReg::F8);
  for (int i = 0; i < 30; ++i) a.iadd(isa::ireg_n(2 + i % 6), IReg::R0, IReg::R1);
  const uint32_t consumer = static_cast<uint32_t>(a.pos());
  a.fadd(FReg::F1, FReg::F0, FReg::F8);
  a.exit();
  const LifetimeRecorder rec = record_lifetimes(a.take());
  const LifetimeRecorder::Life& p = rec.of(producer);
  const LifetimeRecorder::Life& c = rec.of(consumer);
  ASSERT_LT(p.issued, c.dispatched);
  ASSERT_LT(c.dispatched, p.done);
  EXPECT_EQ(c.issued, p.done);
}

TEST(IssueStage, ConsumerDispatchedAfterItsProducerRetiredIsReady) {
  // The producer retires long before its consumer is dispatched (three
  // hundred independent iadds sit between them): its result counts as
  // available, so the consumer issues in the cycle after its dispatch, as
  // the iadds around it do.
  AsmBuilder a("retired-producer");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 2);
  const uint32_t producer = static_cast<uint32_t>(a.pos());
  a.iadd(IReg::R9, IReg::R0, IReg::R1);
  for (int i = 0; i < 300; ++i) {
    a.iadd(isa::ireg_n(2 + i % 6), IReg::R0, IReg::R1);
  }
  const uint32_t consumer = static_cast<uint32_t>(a.pos());
  a.iadd(IReg::R10, IReg::R9, IReg::R1);
  a.exit();
  const isa::Program p = a.take();
  const LifetimeRecorder rec = record_lifetimes(p);
  const LifetimeRecorder::Life& c = rec.of(consumer);
  ASSERT_LT(rec.of(producer).retired, c.dispatched);
  EXPECT_EQ(c.issued, c.dispatched + 1);
}

TEST(IssueStage, ConsumerOfAnL2MissingLoadIssuesAtTheLoadsReadyCycle) {
  AsmBuilder a("missing-load");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 0x400000);
  const uint32_t load = static_cast<uint32_t>(a.pos());
  a.load(IReg::R2, Mem::bd(IReg::R1));
  const uint32_t consumer = static_cast<uint32_t>(a.pos());
  a.iadd(IReg::R3, IReg::R2, IReg::R0);
  a.exit();
  Machine m;
  LifetimeRecorder rec;
  m.core().add_observer(&rec);
  m.load_program(kC0, a.take());
  m.run();
  ASSERT_EQ(m.counters().get(kC0, Event::kL2ReadMisses), 1u);
  const LifetimeRecorder::Life& l = rec.of(load);
  ASSERT_GE(l.done, l.issued + m.config().mem.mem_lat);
  EXPECT_EQ(rec.of(consumer).issued, l.done);
}

// ---------------------------------------------------------------------------
// IPI delivery windows (sticky wake-up protocol)
// ---------------------------------------------------------------------------

// The sleeper publishes "about to halt" and halts; the waker spins for the
// flag, then burns `delay` loop iterations before storing the payload and
// sending the IPI. Sweeping the delay lands the IPI in every sleeper phase:
// still running (IPI must latch and make the upcoming halt fall through),
// draining (kHalting), paying the transition cost (kEnterHalt), and fully
// asleep (kHalted). In every case the run must complete and the sleeper
// must observe the payload written before the IPI.
void run_ipi_window(int delay) {
  SCOPED_TRACE(testing::Message() << "waker delay " << delay);
  const Addr flag = 0x40000, data = 0x40040;
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag, IReg::R0, 1);
  s.halt();
  s.load(IReg::R1, Mem::abs(data));
  s.exit();

  AsmBuilder w("waker");
  sync::emit_spin_until_eq(w, flag, IReg::R0, 1, sync::SpinKind::kTight);
  if (delay > 0) {
    w.imovi(IReg::R2, 0);
    Label loop = w.here();
    w.iaddi(IReg::R2, IReg::R2, 1);
    w.bri(BrCond::kLt, IReg::R2, delay, loop);
  }
  w.imovi(IReg::R3, 99);
  w.store(IReg::R3, Mem::abs(data));
  w.ipi();
  w.exit();

  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run(40'000'000);
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 99);
  EXPECT_EQ(m.counters().get(kC0, Event::kIpisSent), 1u);
  EXPECT_EQ(m.counters().get(kC1, Event::kIpisReceived), 1u);
}

TEST(IpiWindows, NoDelayLandsWhileEnteringHalt) { run_ipi_window(0); }

TEST(IpiWindows, DelaySweepNeverStrandsTheSleeper) {
  // halt_enter_cost is 1500 cycles and the delay loop runs at roughly one
  // iteration per cycle, so this sweep brackets the kHalting / kEnterHalt /
  // kHalted boundaries from both sides.
  for (int delay : {50, 200, 700, 1300, 1500, 1700, 2500, 4000}) {
    run_ipi_window(delay);
  }
}

TEST(IpiWindows, IpiBeforeHaltMakesTheHaltFallThrough) {
  // The waker fires the IPI while the sleeper is still computing: the
  // pending-wakeup latch must turn the later halt into (at most) a paid
  // transition, never a lost wake-up.
  const Addr data = 0x40040;
  AsmBuilder s("sleeper");
  s.imovi(IReg::R2, 0);
  Label loop = s.here();
  s.iaddi(IReg::R2, IReg::R2, 1);
  s.bri(BrCond::kLt, IReg::R2, 8000, loop);
  s.halt();
  s.load(IReg::R1, Mem::abs(data));
  s.exit();

  AsmBuilder w("waker");
  w.imovi(IReg::R3, 55);
  w.store(IReg::R3, Mem::abs(data));
  w.ipi();
  w.exit();

  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run(40'000'000);
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 55);
  EXPECT_EQ(m.counters().get(kC1, Event::kIpisReceived), 1u);
}

// ---------------------------------------------------------------------------
// Event-skip fast-forward: counters must be bit-identical to single-cycle
// stepping (the attribution contract record_cycle_counters documents)
// ---------------------------------------------------------------------------

void expect_identical_counters(const Machine& skip, const Machine& step) {
  EXPECT_EQ(skip.cycles(), step.cycles());
  const perfmon::Snapshot a = skip.counters().snapshot();
  const perfmon::Snapshot b = step.counters().snapshot();
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const auto ev = static_cast<Event>(e);
      EXPECT_EQ(a.get(static_cast<CpuId>(c), ev),
                b.get(static_cast<CpuId>(c), ev))
          << "cpu" << c << " " << perfmon::name(ev);
    }
  }
}

// Runs the two given programs (second may be empty) under event_skip on and
// off and requires identical cycles and counters.
void check_skip_equivalence(const isa::Program& p0, const isa::Program* p1,
                            const MachineConfig& base = {}) {
  MachineConfig skip_cfg = base;
  skip_cfg.core.event_skip = true;
  Machine skip{skip_cfg};
  MachineConfig step_cfg = base;
  step_cfg.core.event_skip = false;
  Machine step{step_cfg};
  for (Machine* m : {&skip, &step}) {
    m->load_program(kC0, p0);
    if (p1 != nullptr) m->load_program(kC1, *p1);
    m->run(40'000'000);
  }
  expect_identical_counters(skip, step);
}

TEST(EventSkip, PauseSpinHandoffCountsIdentically) {
  // Pause spinning creates long fetch-stall windows — exactly what the
  // fast-forward path skips over and must attribute identically.
  const Addr flag = 0x40000, data = 0x40040;
  const isa::Program p0 = work_then_signal(flag, data, 2000);
  const isa::Program p1 = spin_then_read(flag, data, sync::SpinKind::kPause);
  check_skip_equivalence(p0, &p1);
}

TEST(EventSkip, HaltAndWakeCountsIdentically) {
  // Halt windows are thousands of cycles of kCyclesHalted accumulated in
  // one skip; the waker's pause spin overlaps them with fetch stalls.
  const Addr flag = 0x40000;
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag + 64, IReg::R0, 1);
  s.halt();
  s.load(IReg::R1, Mem::abs(flag));
  s.exit();
  AsmBuilder w("waker");
  sync::emit_flag_set(w, flag, IReg::R0, 7);
  sync::emit_spin_until_eq(w, flag + 64, IReg::R1, 1, sync::SpinKind::kPause);
  w.ipi();
  w.exit();
  const isa::Program p0 = w.take();
  const isa::Program p1 = s.take();
  check_skip_equivalence(p0, &p1);
}

TEST(EventSkip, UnpipelinedDivideStreamsCountIdentically) {
  // Divider-serialized streams stall dispatch on a full ROB while the
  // in-flight divide finishes — resource-stall windows under skip.
  const isa::Program p0 = idiv_chain(6, 150);
  const isa::Program p1 = fdiv_chain(6, 150);
  check_skip_equivalence(p0, &p1);
  check_skip_equivalence(p0, nullptr);
}

TEST(EventSkip, StorePressureCountsIdentically) {
  // Store bursts drain one per cycle after retirement; the store-buffer
  // stall cycles and drain events must replay exactly.
  AsmBuilder a("stores");
  a.imovi(IReg::R0, 0x70000);
  a.imovi(IReg::R1, 0);
  Label loop = a.here();
  for (int i = 0; i < 8; ++i) {
    a.store(IReg::R1, Mem::bi(IReg::R0, IReg::R1, 3));
  }
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, 400, loop);
  a.exit();
  const isa::Program p = a.take();
  check_skip_equivalence(p, nullptr);
}

/// One dependent chain through every latency class per iteration — a
/// zero-latency add, shifts, a multiply, and a store/load round trip whose
/// address is the chain value — beside an FP add/multiply chain.
isa::Program chain_loop(Addr buf, int iters) {
  AsmBuilder a("chain");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 1);
  a.imovi(IReg::R6, 0);
  a.imovi(IReg::R7, static_cast<int64_t>(buf));
  a.fmovi(FReg::F0, 1.0);
  a.fmovi(FReg::F8, 1.0);
  Label loop = a.here();
  a.iadd(IReg::R0, IReg::R0, IReg::R1);
  a.ishli(IReg::R0, IReg::R0, 1);
  a.ishri(IReg::R0, IReg::R0, 1);
  a.imul(IReg::R0, IReg::R0, IReg::R1);
  a.iandi(IReg::R3, IReg::R0, 63);
  a.store(IReg::R0, Mem::bi(IReg::R7, IReg::R3, 3));
  a.load(IReg::R2, Mem::bi(IReg::R7, IReg::R3, 3));
  a.iadd(IReg::R0, IReg::R2, IReg::R1);
  a.iandi(IReg::R0, IReg::R0, 0xffff);
  a.fadd(FReg::F0, FReg::F0, FReg::F8);
  a.fmul(FReg::F0, FReg::F0, FReg::F8);
  a.iaddi(IReg::R6, IReg::R6, 1);
  a.bri(BrCond::kLt, IReg::R6, iters, loop);
  a.exit();
  return a.take();
}

TEST(IssueStage, LongChainsAtATinyRobCountIdenticallyAcrossEventSkip) {
  // Four ROB slots (two per context while both run): every slot and every
  // waiter link is reused thousands of times.
  MachineConfig tiny;
  tiny.core.rob_size = 4;
  const isa::Program p0 = chain_loop(0x80000, 300);
  const isa::Program p1 = chain_loop(0x90000, 200);
  check_skip_equivalence(p0, &p1, tiny);
  check_skip_equivalence(p0, nullptr, tiny);
}

/// Records each issue's opcode, done cycle and issue cycle.
class OpIssueRecorder : public cpu::PipelineObserver {
 public:
  struct Issue {
    isa::Opcode op;
    Cycle done;
    Cycle now;
  };
  void on_issue(CpuId /*cpu*/, const cpu::DynUop& uop, int /*port*/,
                Cycle done, Cycle now) override {
    issues_.push_back({uop.op, done, now});
  }
  /// The issues of `op`, in issue order.
  std::vector<Issue> of(isa::Opcode op) const {
    std::vector<Issue> out;
    for (const Issue& i : issues_) {
      if (i.op == op) out.push_back(i);
    }
    return out;
  }

 private:
  std::vector<Issue> issues_;
};

/// Every opcode that issues without a memory access, each at least once
/// (halt needs a waker and exit never issues), then two independent fdivs
/// and two independent idivs.
isa::Program every_alu_opcode() {
  AsmBuilder a("every-alu-op");
  a.imovi(IReg::R0, 7);
  a.imovi(IReg::R1, 3);
  a.fmovi(FReg::F0, 1.5);
  a.fmovi(FReg::F1, 2.5);
  a.iadd(IReg::R2, IReg::R0, IReg::R1);
  a.isub(IReg::R2, IReg::R0, IReg::R1);
  a.imov(IReg::R2, IReg::R0);
  a.iand(IReg::R2, IReg::R0, IReg::R1);
  a.ior(IReg::R2, IReg::R0, IReg::R1);
  a.ixor(IReg::R2, IReg::R0, IReg::R1);
  a.ishli(IReg::R2, IReg::R0, 2);
  a.ishri(IReg::R2, IReg::R0, 1);
  a.imul(IReg::R2, IReg::R0, IReg::R1);
  a.fadd(FReg::F2, FReg::F0, FReg::F1);
  a.fsub(FReg::F2, FReg::F0, FReg::F1);
  a.fmul(FReg::F2, FReg::F0, FReg::F1);
  a.fmov(FReg::F2, FReg::F0);
  a.fneg(FReg::F2, FReg::F0);
  Label skip = a.label();
  a.bri(BrCond::kEq, IReg::R0, 0, skip);
  a.bind(skip);
  Label over = a.label();
  a.jmp(over);
  a.bind(over);
  a.nop();
  a.pause();
  a.ipi();
  a.fdiv(FReg::F3, FReg::F0, FReg::F1);
  a.fdiv(FReg::F4, FReg::F0, FReg::F1);
  a.idiv(IReg::R3, IReg::R0, IReg::R1);
  a.idiv(IReg::R4, IReg::R0, IReg::R1);
  a.exit();
  return a.take();
}

TEST(IssueStage, EveryOpcodeIsDoneAtItsConfiguredLatency) {
  // Distinct latencies, so an opcode timed with another opcode's latency
  // shows; the divider settings are tried in all four combinations.
  const isa::Program p = every_alu_opcode();
  for (const bool fdiv_unpipelined : {false, true}) {
    for (const bool idiv_unpipelined : {false, true}) {
      SCOPED_TRACE(testing::Message() << "fdiv_unpipelined "
                                      << fdiv_unpipelined
                                      << " idiv_unpipelined "
                                      << idiv_unpipelined);
      MachineConfig cfg;
      cfg.core.lat_simple_alu = 2;
      cfg.core.lat_shift = 3;
      cfg.core.lat_fadd = 4;
      cfg.core.lat_branch = 5;
      cfg.core.lat_fmov = 6;
      cfg.core.lat_fmul = 9;
      cfg.core.lat_imul = 11;
      cfg.core.lat_fdiv = 17;
      cfg.core.lat_idiv = 23;
      cfg.core.fdiv_unpipelined = fdiv_unpipelined;
      cfg.core.idiv_unpipelined = idiv_unpipelined;
      Machine m{cfg};
      OpIssueRecorder rec;
      m.core().add_observer(&rec);
      m.load_program(kC0, p);
      m.run();

      const cpu::CoreConfig& c = m.config().core;
      for (int i = 0; i < isa::kNumOpcodeValues; ++i) {
        const auto op = static_cast<isa::Opcode>(i);
        if (isa::traits(op).is_mem || op == isa::Opcode::kHalt ||
            op == isa::Opcode::kExit) {
          continue;
        }
        SCOPED_TRACE(isa::name(op));
        const std::vector<OpIssueRecorder::Issue> issues = rec.of(op);
        ASSERT_FALSE(issues.empty());
        for (const OpIssueRecorder::Issue& u : issues) {
          EXPECT_EQ(u.done, u.now + c.latency(op));
        }
      }
      // The second of two independent divides waits for the first one's
      // result exactly when that divider is unpipelined.
      const auto fdivs = rec.of(isa::Opcode::kFDiv);
      const auto idivs = rec.of(isa::Opcode::kIDiv);
      ASSERT_EQ(fdivs.size(), 2u);
      ASSERT_EQ(idivs.size(), 2u);
      EXPECT_EQ(fdivs[1].now >= fdivs[0].done, fdiv_unpipelined);
      EXPECT_EQ(idivs[1].now >= idivs[0].done, idiv_unpipelined);
    }
  }
}

/// Tracks cpu0's ROB occupancy from its dispatches and retirements and
/// records the cycles of the dispatches that take it past `half` entries.
class RobCrossingRecorder : public cpu::PipelineObserver {
 public:
  explicit RobCrossingRecorder(int half) : half_(half) {}
  void on_dispatch(CpuId cpu, const cpu::DynUop& /*uop*/,
                   Cycle now) override {
    if (cpu != kC0) return;
    if (++occupancy_ == half_ + 1) crossings_.push_back(now);
  }
  void on_retire(CpuId cpu, const cpu::DynUop& /*uop*/, int /*uops*/,
                 Cycle /*now*/) override {
    if (cpu == kC0) --occupancy_;
  }
  void on_halt_enter(CpuId cpu, Cycle now) override {
    if (cpu == kC1) halt_fetched_ = now;
  }
  const std::vector<Cycle>& crossings() const { return crossings_; }
  Cycle halt_fetched() const { return halt_fetched_; }

 private:
  int half_;
  int occupancy_ = 0;
  std::vector<Cycle> crossings_;
  Cycle halt_fetched_ = 0;
};

TEST(IssueStage, RobPastHalfFollowsTheSiblingsHaltAndWakeAcrossEventSkip) {
  // cpu0 fills its ROB behind a dependent fdiv chain. cpu1 halts at once;
  // once it is asleep cpu0 may use the whole ROB, until cpu0's IPI wakes
  // it, and again after it exits. The dispatches past half the ROB must
  // land in the same cycles whether idle cycles are skipped or stepped.
  AsmBuilder w("rob-filler");
  w.fmovi(FReg::F0, 1.0);
  w.fmovi(FReg::F8, 1.0);
  w.imovi(IReg::R0, 0);
  Label loop = w.here();
  w.fdiv(FReg::F0, FReg::F0, FReg::F8);
  for (int i = 0; i < 20; ++i) w.nop();
  w.iaddi(IReg::R0, IReg::R0, 1);
  w.bri(BrCond::kLt, IReg::R0, 200, loop);
  w.ipi();
  w.imovi(IReg::R0, 0);
  Label tail = w.here();
  w.fdiv(FReg::F0, FReg::F0, FReg::F8);
  for (int i = 0; i < 20; ++i) w.nop();
  w.iaddi(IReg::R0, IReg::R0, 1);
  w.bri(BrCond::kLt, IReg::R0, 200, tail);
  w.exit();
  AsmBuilder s("sleeper");
  s.halt();
  s.exit();
  const isa::Program p0 = w.take();
  const isa::Program p1 = s.take();

  std::vector<Cycle> crossings[2];
  int i = 0;
  for (const bool event_skip : {true, false}) {
    MachineConfig cfg;
    cfg.core.event_skip = event_skip;
    Machine m{cfg};
    RobCrossingRecorder rec(cfg.core.rob_size / 2);
    m.core().add_observer(&rec);
    m.load_program(kC0, p0);
    m.load_program(kC1, p1);
    m.run();
    ASSERT_FALSE(rec.crossings().empty());
    EXPECT_GT(rec.crossings().front(),
              rec.halt_fetched() + cfg.core.halt_enter_cost);
    crossings[i++] = rec.crossings();
  }
  // Past half while cpu1 is asleep, and again once it has exited.
  EXPECT_GE(crossings[0].size(), 2u);
  EXPECT_EQ(crossings[0], crossings[1]);
}

// ---------------------------------------------------------------------------
// Generated programs: every uop issues after its RAW producers have issued
// and no earlier than their results are done
// ---------------------------------------------------------------------------

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : seed_(seed) {}
  uint64_t operator()() {
    seed_ = seed_ * 6364136223846793005ull + 1442695040888963407ull;
    return seed_ >> 33;
  }

 private:
  uint64_t seed_;
};

/// A terminating program: a counted loop over a random body of integer
/// adds, shifts, multiplies and divides, FP adds, multiplies and divides,
/// and loads and stores into the 64-word buffer at `buf`. R0-R5 and F0-F5
/// carry data, R6 counts iterations, R7 holds `buf`, R8 is the word
/// index. Integer results are masked to 16 bits, so no operation
/// overflows.
isa::Program random_program(Lcg& next, Addr buf) {
  AsmBuilder a("random");
  for (int r = 0; r < 6; ++r) {
    a.imovi(isa::ireg_n(r), static_cast<int64_t>(1 + next() % 100));
    a.fmovi(isa::freg_n(r), 0.5 + static_cast<double>(next() % 8));
  }
  a.imovi(IReg::R6, 0);
  a.imovi(IReg::R7, static_cast<int64_t>(buf));
  const auto ireg = [&next] { return isa::ireg_n(static_cast<int>(next() % 6)); };
  const auto freg = [&next] { return isa::freg_n(static_cast<int>(next() % 6)); };
  const auto word = [&](IReg from) {
    a.iandi(IReg::R8, from, 63);
    return Mem::bi(IReg::R7, IReg::R8, 3);
  };
  Label loop = a.here();
  const uint64_t body = 2 + next() % 14;
  for (uint64_t i = 0; i < body; ++i) {
    const uint64_t kind = next() % 10;
    const IReg d = ireg(), s1 = ireg(), s2 = ireg();
    const FReg fd = freg(), f1 = freg(), f2 = freg();
    switch (kind) {
      case 0: a.iadd(d, s1, s2); break;
      case 1: a.ishli(d, s1, static_cast<int64_t>(next() % 8)); break;
      case 2: a.imul(d, s1, s2); break;
      case 3: a.idiv(d, s1, s2); break;
      case 4: a.fadd(fd, f1, f2); break;
      case 5: a.fmul(fd, f1, f2); break;
      case 6: a.fdiv(fd, f1, f2); break;
      case 7: a.load(d, word(s1)); break;
      case 8: a.store(s2, word(s1)); break;
      default:
        if (next() % 2 == 0) {
          a.fload(fd, word(s1));
        } else {
          a.fstore(f1, word(s1));
        }
        break;
    }
    if (kind <= 3 || kind == 7) a.iandi(d, d, 0xffff);
  }
  a.iaddi(IReg::R6, IReg::R6, 1);
  a.bri(BrCond::kLt, IReg::R6, static_cast<int64_t>(1 + next() % 24), loop);
  a.exit();
  return a.take();
}

/// Checks issue order against RAW dependences derived from the fetch
/// stream alone: a uop's producers are the last writers, in its context's
/// fetch order, of the registers it reads (address registers included).
class RawIssueChecker final : public cpu::PipelineObserver {
 public:
  void on_fetch(CpuId cpu, const cpu::DynUop& uop, Cycle /*now*/) override {
    if (uops_.size() <= uop.uid) uops_.resize(uop.uid + 1);
    Uop& u = uops_[uop.uid];
    for (int i = 0; i < uop.ndep_regs; ++i) {
      u.producers[u.nproducers++] = last_writer_[idx(cpu)][uop.dep_regs[i]];
    }
    if (uop.dst != isa::kNoReg) last_writer_[idx(cpu)][uop.dst] = uop.uid;
    ++fetched_;
  }
  void on_issue(CpuId /*cpu*/, const cpu::DynUop& uop, int /*port*/,
                Cycle done, Cycle now) override {
    Uop& u = uops_[uop.uid];
    for (int i = 0; i < u.nproducers; ++i) {
      const uint64_t p = u.producers[i];
      if (p == 0) continue;  // no writer fetched yet
      ++checked_;
      const Uop& w = uops_[p];
      if (!w.issued) {
        note(uop, now, "issued before its producer");
      } else if (now < w.done) {
        note(uop, now, "issued before its producer's result was done");
      }
    }
    u.issued = true;
    u.done = done;
    ++issued_;
  }

  uint64_t fetched() const { return fetched_; }
  uint64_t issued() const { return issued_; }
  uint64_t checked() const { return checked_; }
  uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_; }

 private:
  struct Uop {
    std::array<uint64_t, 4> producers{};  // uids; 0 = none
    int nproducers = 0;
    bool issued = false;
    Cycle done = 0;
  };

  void note(const cpu::DynUop& uop, Cycle now, const char* what) {
    if (violations_++ == 0) {
      first_ = "uid " + std::to_string(uop.uid) + " pc " +
               std::to_string(uop.pc) + " cycle " + std::to_string(now) +
               ": " + what;
    }
  }

  std::vector<Uop> uops_;
  std::array<std::array<uint64_t, isa::kNumRegs>, kNumLogicalCpus>
      last_writer_{};
  uint64_t fetched_ = 0;
  uint64_t issued_ = 0;
  uint64_t checked_ = 0;
  uint64_t violations_ = 0;
  std::string first_;
};

TEST(GeneratedPrograms, EveryUopIssuesAfterItsProducersUnderBothSkipModes) {
  Lcg next(0x2545f4914f6cdd1dull);
  uint64_t checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const isa::Program p0 = random_program(next, 0x100000);
    const isa::Program p1 = random_program(next, 0x200000);
    MachineConfig skip_cfg;
    skip_cfg.core.event_skip = true;
    Machine skip{skip_cfg};
    MachineConfig step_cfg;
    step_cfg.core.event_skip = false;
    Machine step{step_cfg};
    for (Machine* m : {&skip, &step}) {
      RawIssueChecker checker;
      m->core().add_observer(&checker);
      m->load_program(kC0, p0);
      m->load_program(kC1, p1);
      m->run(10'000'000);
      EXPECT_EQ(checker.violations(), 0u) << checker.first_violation();
      EXPECT_EQ(checker.issued(), checker.fetched());
      checked += checker.checked();
    }
    expect_identical_counters(skip, step);
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// run_until_any_done shares try_run's loop
// ---------------------------------------------------------------------------

TEST(Runner, RunUntilAnyDoneIsIdenticalAcrossEventSkip) {
  // Divider-bound streams leave skip windows before the first exit: the
  // same context must finish first, at the same cycle, with the same
  // counters whether those windows are skipped or stepped.
  const isa::Program p0 = idiv_chain(6, 150);
  const isa::Program p1 = fdiv_chain(6, 300);
  MachineConfig skip_cfg;
  skip_cfg.core.event_skip = true;
  Machine skip{skip_cfg};
  MachineConfig step_cfg;
  step_cfg.core.event_skip = false;
  Machine step{step_cfg};
  CpuId first[2];
  int i = 0;
  for (Machine* m : {&skip, &step}) {
    m->load_program(kC0, p0);
    m->load_program(kC1, p1);
    first[i++] = m->run_until_any_done();
  }
  EXPECT_EQ(first[0], first[1]);
  EXPECT_FALSE(skip.core().all_done());
  expect_identical_counters(skip, step);
}

TEST(RunnerDeath, RunUntilAnyDoneAbortsOnAnExhaustedBudget) {
  Machine m;
  m.load_program(kC0, fadd_chain(6, 20000));
  m.load_program(kC1, fadd_chain(6, 20000));
  EXPECT_DEATH(m.run_until_any_done(100), "max_cycles exceeded");
}

}  // namespace
}  // namespace smt
