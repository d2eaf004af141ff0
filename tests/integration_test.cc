// Cross-module integration and property tests: determinism, counter
// consistency, stream-property sweeps and barrier stress.
#include <gtest/gtest.h>

#include <tuple>

#include "core/runner.h"
#include "isa/asm_builder.h"
#include "kernels/bt.h"
#include "kernels/matmul.h"
#include "perfmon/events.h"
#include "profile/mix_profiler.h"
#include "streams/stream_gen.h"
#include "streams/stream_runner.h"
#include "sync/primitives.h"

namespace smt {
namespace {

using core::Machine;
using core::MachineConfig;
using isa::AsmBuilder;
using isa::BrCond;
using isa::IReg;
using perfmon::Event;
using streams::IlpLevel;
using streams::StreamKind;
using streams::StreamSpec;

// ---------------------------------------------------------------------------
// Determinism: the whole platform must be bit-reproducible.
// ---------------------------------------------------------------------------

TEST(Determinism, KernelRunsAreExactlyRepeatable) {
  auto run = [] {
    kernels::MatMulParams p;
    p.n = 16;
    p.tile = 4;
    p.mode = kernels::MmMode::kTlpPfetch;
    kernels::MatMulWorkload w(p);
    const core::RunStats st = core::run_workload(MachineConfig{}, w);
    return std::make_tuple(st.cycles, st.total(Event::kUopsRetired),
                           st.total(Event::kL2Misses),
                           st.total(Event::kMachineClears));
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, StreamPairsAreExactlyRepeatable) {
  StreamSpec s;
  s.kind = StreamKind::kFAdd;
  s.ilp = IlpLevel::kMed;
  s.ops = 20'000;
  const auto a = streams::run_pair(s, s);
  const auto b = streams::run_pair(s, s);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instrs[0], b.instrs[0]);
  EXPECT_EQ(a.instrs[1], b.instrs[1]);
}

// ---------------------------------------------------------------------------
// Counter consistency invariants.
// ---------------------------------------------------------------------------

TEST(CounterInvariants, DispatchIssueRetireBalance) {
  // No speculation in the model: every dispatched uop issues and retires.
  kernels::BtParams p;
  p.lines = 2;
  p.cells = 4;
  kernels::BtWorkload w(p);
  const core::RunStats st = core::run_workload(MachineConfig{}, w);
  ASSERT_TRUE(st.verified);
  EXPECT_EQ(st.total(Event::kDispatchedUops), st.total(Event::kIssuedUops));
  EXPECT_EQ(st.total(Event::kDispatchedUops), st.total(Event::kInstrRetired));
}

TEST(CounterInvariants, ClassCountsPartitionRetired) {
  kernels::MatMulParams p;
  p.n = 16;
  p.tile = 4;
  kernels::MatMulWorkload w(p);
  Machine m{MachineConfig{}};
  profile::MixProfiler prof;
  m.core().add_observer(&prof);
  w.setup(m);
  m.load_program(CpuId::kCpu0, w.programs()[0]);
  m.run();
  // The profiler's per-subunit counts sum exactly to the retired total.
  uint64_t sum = 0;
  for (int s = 0; s < static_cast<int>(profile::Subunit::kNumSubunits); ++s) {
    sum += prof.count(CpuId::kCpu0, static_cast<profile::Subunit>(s));
  }
  EXPECT_EQ(sum, m.counters().get(CpuId::kCpu0, Event::kInstrRetired));
}

TEST(CounterInvariants, L2MissesNeverExceedL2Accesses) {
  kernels::BtParams p;
  p.lines = 4;
  p.cells = 8;
  kernels::BtWorkload w(p);
  const core::RunStats st = core::run_workload(MachineConfig{}, w);
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId c = static_cast<CpuId>(i);
    EXPECT_LE(st.cpu(c, Event::kL2Misses), st.cpu(c, Event::kL2Accesses));
    EXPECT_LE(st.cpu(c, Event::kL2ReadMisses), st.cpu(c, Event::kL2Misses));
    EXPECT_LE(st.cpu(c, Event::kL2Accesses), st.cpu(c, Event::kL1Misses));
  }
}

TEST(CounterInvariants, EventSkipCountersMatchSingleCycleSteppingOnSpr) {
  // The strongest end-to-end check of the fast-forward attribution: the
  // SPR matmul with halt-throttled barriers exercises every skip source
  // (halt sleeps, pause fetch stalls, resource stalls, store drains,
  // outstanding misses) and every counter must come out bit-identical to
  // cycle-by-cycle stepping.
  kernels::MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = kernels::MmMode::kTlpPfetch;
  p.halt_barriers = true;
  core::RunStats st[2];
  for (int skip = 0; skip < 2; ++skip) {
    MachineConfig cfg;
    cfg.core.event_skip = skip == 1;
    kernels::MatMulWorkload w(p);
    st[skip] = core::run_workload(cfg, w);
    ASSERT_TRUE(st[skip].verified);
  }
  EXPECT_EQ(st[0].cycles, st[1].cycles);
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId c = static_cast<CpuId>(i);
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const auto ev = static_cast<Event>(e);
      EXPECT_EQ(st[0].cpu(c, ev), st[1].cpu(c, ev))
          << "cpu" << i << " " << perfmon::name(ev);
    }
  }
}

// ---------------------------------------------------------------------------
// Stream properties, swept over every kind x ILP level.
// ---------------------------------------------------------------------------

using StreamCase = std::tuple<StreamKind, IlpLevel>;

class StreamProperties : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamProperties, CoRunningNeverSpeedsAStreamUp) {
  const auto [kind, ilp] = GetParam();
  StreamSpec s;
  s.kind = kind;
  s.ilp = ilp;
  s.ops = kind == StreamKind::kFDiv || kind == StreamKind::kIDiv ? 3'000
                                                                 : 40'000;
  const double alone = streams::run_single(s).cpi[0];
  StreamSpec agg = s;
  agg.ops *= 3;
  const double with = streams::run_pair(s, agg).cpi[0];
  EXPECT_GE(with, 0.97 * alone) << s.label();
}

TEST_P(StreamProperties, IlpNeverHurtsSingleThreadedThroughput) {
  const auto [kind, ilp] = GetParam();
  if (ilp == IlpLevel::kMin) return;  // compare against min within the kind
  StreamSpec lo;
  lo.kind = kind;
  lo.ilp = IlpLevel::kMin;
  lo.ops = kind == StreamKind::kFDiv || kind == StreamKind::kIDiv ? 3'000
                                                                  : 40'000;
  StreamSpec hi = lo;
  hi.ilp = ilp;
  const double cpi_lo = streams::run_single(lo).cpi[0];
  const double cpi_hi = streams::run_single(hi).cpi[0];
  EXPECT_LE(cpi_hi, 1.05 * cpi_lo) << lo.label() << " vs " << hi.label();
}

TEST_P(StreamProperties, SymmetricPairsGetSymmetricService) {
  const auto [kind, ilp] = GetParam();
  StreamSpec s;
  s.kind = kind;
  s.ilp = ilp;
  s.ops = kind == StreamKind::kFDiv || kind == StreamKind::kIDiv ? 3'000
                                                                 : 40'000;
  const auto pair = streams::run_pair(s, s);
  EXPECT_NEAR(pair.cpi[0], pair.cpi[1], 0.12 * pair.cpi[0]) << s.label();
}

INSTANTIATE_TEST_SUITE_P(
    AllStreams, StreamProperties,
    ::testing::Combine(
        ::testing::Values(StreamKind::kFAdd, StreamKind::kFSub,
                          StreamKind::kFMul, StreamKind::kFDiv,
                          StreamKind::kFAddMul, StreamKind::kFLoad,
                          StreamKind::kFStore, StreamKind::kIAdd,
                          StreamKind::kISub, StreamKind::kIMul,
                          StreamKind::kIDiv, StreamKind::kILoad,
                          StreamKind::kIStore),
        ::testing::Values(IlpLevel::kMin, IlpLevel::kMed, IlpLevel::kMax)),
    [](const auto& info) {
      std::string s = std::string(streams::name(std::get<0>(info.param))) +
                      "_" + streams::name(std::get<1>(info.param));
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

// ---------------------------------------------------------------------------
// Barrier stress: many episodes, both flavours, random-ish work imbalance.
// ---------------------------------------------------------------------------

class BarrierEpisodes : public ::testing::TestWithParam<int> {};

TEST_P(BarrierEpisodes, OrderedHandoffSurvivesManyEpisodes) {
  const int episodes = GetParam();
  mem::MemoryLayout lay(0x60000);
  sync::TwoThreadBarrier bar(lay, "stress");
  const Addr cell = lay.alloc("cell", 8);
  const Addr check = lay.alloc("check", 8);

  // Thread 0 writes e+1 before barrier e (even e), thread 1 (odd e), and
  // the other side reads and accumulates after it; unequal loop bodies
  // skew arrival order across episodes.
  AsmBuilder p0("t0");
  bar.emit_init(p0, IReg::R15);
  p0.imovi(IReg::R10, 0);
  for (int e = 0; e < episodes; ++e) {
    if (e % 2 == 0) {
      p0.imovi(IReg::R1, e + 1);
      p0.store(IReg::R1, isa::Mem::abs(cell));
    } else {
      // busy work to skew arrivals
      p0.imovi(IReg::R2, 0);
      isa::Label l = p0.here();
      p0.iaddi(IReg::R2, IReg::R2, 1);
      p0.bri(BrCond::kLt, IReg::R2, (e * 37) % 200, l);
    }
    bar.emit_wait(p0, 0, IReg::R15, IReg::R14,
                  e % 3 == 0 ? sync::SpinKind::kTight : sync::SpinKind::kPause);
    if (e % 2 == 1) {
      p0.load(IReg::R1, isa::Mem::abs(cell));
      p0.iadd(IReg::R10, IReg::R10, IReg::R1);
    }
    bar.emit_wait(p0, 0, IReg::R15, IReg::R14, sync::SpinKind::kPause);
  }
  p0.store(IReg::R10, isa::Mem::abs(check));
  p0.exit();

  AsmBuilder p1("t1");
  bar.emit_init(p1, IReg::R15);
  p1.imovi(IReg::R10, 0);
  for (int e = 0; e < episodes; ++e) {
    if (e % 2 == 1) {
      p1.imovi(IReg::R1, e + 1);
      p1.store(IReg::R1, isa::Mem::abs(cell));
    }
    bar.emit_wait(p1, 1, IReg::R15, IReg::R14, sync::SpinKind::kPause);
    if (e % 2 == 0) {
      p1.load(IReg::R1, isa::Mem::abs(cell));
      p1.iadd(IReg::R10, IReg::R10, IReg::R1);
    }
    bar.emit_wait(p1, 1, IReg::R15, IReg::R14, sync::SpinKind::kPause);
  }
  p1.store(IReg::R10, isa::Mem::abs(check + 64));
  p1.exit();

  Machine m;
  m.load_program(CpuId::kCpu0, p0.take());
  m.load_program(CpuId::kCpu1, p1.take());
  m.run();

  // Sum of episode ids each side observed: evens to t1, odds to t0.
  int64_t odd = 0, even = 0;
  for (int e = 0; e < episodes; ++e) {
    if (e % 2 == 0) {
      even += e + 1;
    } else {
      odd += e + 1;
    }
  }
  EXPECT_EQ(m.memory().read_i64(check), odd);
  EXPECT_EQ(m.memory().read_i64(check + 64), even);
}

INSTANTIATE_TEST_SUITE_P(EpisodeCounts, BarrierEpisodes,
                         ::testing::Values(1, 2, 3, 8, 16, 32));

}  // namespace
}  // namespace smt
