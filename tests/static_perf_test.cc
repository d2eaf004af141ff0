// Tests for the static CPI lower-bound advisor: the constraint families
// on hand-built programs (port pressure, unpipelined dividers,
// loop-carried dependence chains, the retire-width floor), graceful
// degradation on malformed programs and determinism. The soundness
// contract against the cycle-accurate core is static_perf_registry_test's.
#include <vector>

#include "analysis/static_perf.h"
#include "gtest/gtest.h"
#include "isa/asm_builder.h"

namespace smt::analysis {
namespace {

using isa::AsmBuilder;
using isa::BrCond;
using isa::FReg;
using isa::IReg;
using isa::Label;

const cpu::CoreConfig kCfg;

/// Counted loop whose body is supplied by `body`, plus counter + branch.
template <typename Body>
isa::Program loop_program(const char* name, int64_t trips, Body body) {
  AsmBuilder a(name);
  a.fmovi(FReg::F0, 1.0);
  a.imovi(IReg::R0, 0);
  const Label top = a.here();
  body(a);
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, trips, top);
  a.exit();
  return a.take();
}

TEST(StaticPerf, EmptyProgramReportsZeroWithoutAborting) {
  const StaticPerf sp = static_cpi_bound(isa::Program("empty", {}), kCfg);
  EXPECT_FALSE(sp.exact);
  EXPECT_EQ(sp.cpi_lb, 0.0);
}

TEST(StaticPerf, StraightLineIsExactAndRespectsTheRetireFloor) {
  AsmBuilder a("straight");
  a.imovi(IReg::R0, 1);
  a.iaddi(IReg::R1, IReg::R0, 2);
  a.iaddi(IReg::R2, IReg::R0, 3);
  a.exit();
  const StaticPerf sp = static_cpi_bound(a.take(), kCfg);
  EXPECT_TRUE(sp.exact);
  EXPECT_EQ(sp.instrs, 4u);
  EXPECT_GE(sp.cpi_lb, 1.0 / kCfg.retire_width);
  EXPECT_GT(sp.cycles_lb, 0.0);
  EXPECT_FALSE(sp.binding.empty());
}

TEST(StaticPerf, SharedFpPortBindsAnFpHeavyLoop) {
  // Two independent fp adds per iteration against a single fp port: the
  // port needs 2 cycles for the 4-instruction body.
  const isa::Program p = loop_program("fp-heavy", 100, [](AsmBuilder& a) {
    a.fadd(FReg::F1, FReg::F0, FReg::F0);
    a.fadd(FReg::F2, FReg::F0, FReg::F0);
  });
  const StaticPerf sp = static_cpi_bound(p, kCfg);
  ASSERT_TRUE(sp.exact);
  EXPECT_EQ(sp.binding, "fp port");
  EXPECT_GE(sp.cpi_lb, 0.4);
  EXPECT_LE(sp.cpi_lb, 0.6);
  // The fp port column carries the two adds per iteration.
  EXPECT_GE(sp.port_uops[static_cast<int>(cpu::IssuePort::kFp)], 200.0);
}

TEST(StaticPerf, UnpipelinedDividerDominates) {
  const isa::Program p = loop_program("div-heavy", 100, [](AsmBuilder& a) {
    a.fdiv(FReg::F1, FReg::F0, FReg::F0);
  });
  const StaticPerf sp = static_cpi_bound(p, kCfg);
  ASSERT_TRUE(sp.exact);
  EXPECT_EQ(sp.binding, "fdiv unit");
  EXPECT_GT(sp.cpi_lb, 5.0);
}

TEST(StaticPerf, LoopCarriedChainBeatsPortPressure) {
  // f1 = f1 + f0 serializes on the fadd latency; the same loop with an
  // independent destination is only port-bound.
  const isa::Program chained =
      loop_program("chain", 100, [](AsmBuilder& a) {
        a.fadd(FReg::F1, FReg::F1, FReg::F0);
      });
  const isa::Program free =
      loop_program("free", 100, [](AsmBuilder& a) {
        a.fadd(FReg::F1, FReg::F0, FReg::F0);
      });
  const StaticPerf sc = static_cpi_bound(chained, kCfg);
  const StaticPerf sf = static_cpi_bound(free, kCfg);
  ASSERT_TRUE(sc.exact);
  EXPECT_EQ(sc.binding, "loop-carried fadd chain");
  EXPECT_GT(sc.cpi_lb, sf.cpi_lb);
}

TEST(StaticPerf, MalformedProgramFallsBackToTheDensityBound) {
  // Falls off the end: no exact loop structure, but the fallback still
  // guarantees the retire-width floor.
  std::vector<isa::Instr> code(3);
  const StaticPerf sp =
      static_cpi_bound(isa::Program("fall", std::move(code)), kCfg);
  EXPECT_FALSE(sp.exact);
  EXPECT_GE(sp.cpi_lb, 1.0 / kCfg.retire_width);
}

TEST(StaticPerf, BoundIsDeterministic) {
  const isa::Program p = loop_program("det", 64, [](AsmBuilder& a) {
    a.fadd(FReg::F1, FReg::F0, FReg::F0);
    a.iaddi(IReg::R1, IReg::R0, 1);
  });
  const StaticPerf a = static_cpi_bound(p, kCfg);
  const StaticPerf b = static_cpi_bound(p, kCfg);
  EXPECT_EQ(a.cpi_lb, b.cpi_lb);
  EXPECT_EQ(a.cycles_lb, b.cycles_lb);
  EXPECT_EQ(a.binding, b.binding);
  EXPECT_EQ(a.instrs, b.instrs);
}

}  // namespace
}  // namespace smt::analysis
