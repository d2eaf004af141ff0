// Tests for the public API layer: Machine, Workload, ExperimentRunner and
// the perfmon snapshot arithmetic they rely on.
#include <gtest/gtest.h>

#include "common/json.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "core/workload.h"
#include "isa/asm_builder.h"
#include "perfmon/counters.h"

namespace smt::core {
namespace {

using isa::AsmBuilder;
using isa::BrCond;
using isa::IReg;
using isa::Mem;
using perfmon::Event;

isa::Program count_to(int n, Addr out) {
  AsmBuilder a("count");
  a.imovi(IReg::R0, 0);
  isa::Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, n, loop);
  a.store(IReg::R0, Mem::abs(out));
  a.exit();
  return a.take();
}

TEST(Machine, DefaultConfigIsNetburstClass) {
  Machine m;
  EXPECT_EQ(m.config().core.fetch_width, 3);
  EXPECT_EQ(m.config().core.retire_width, 3);
  EXPECT_EQ(m.config().mem.l1.size_bytes, 8u * 1024);
  EXPECT_EQ(m.config().mem.l2.size_bytes, 512u * 1024);
  EXPECT_EQ(m.config().mem.l2.assoc, 8);  // the paper's A = 8
}

TEST(Machine, CustomConfigPropagates) {
  MachineConfig cfg;
  cfg.core.lat_fadd = 9;
  cfg.mem.l1.size_bytes = 16 * 1024;
  Machine m(cfg);
  EXPECT_EQ(m.config().core.lat_fadd, 9u);
  EXPECT_EQ(m.hierarchy().config().l1.size_bytes, 16u * 1024);
}

TEST(Machine, RunsASingleProgram) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(100, 0x9000));
  m.run();
  EXPECT_EQ(m.memory().read_i64(0x9000), 100);
  EXPECT_GT(m.cycles(), 0u);
}

TEST(Machine, RunsTwoIndependentPrograms) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(100, 0x9000));
  m.load_program(CpuId::kCpu1, count_to(50, 0x9040));
  m.run();
  EXPECT_EQ(m.memory().read_i64(0x9000), 100);
  EXPECT_EQ(m.memory().read_i64(0x9040), 50);
}

TEST(MachineDeath, DoubleBindIsFatal) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(1, 0x9000));
  EXPECT_DEATH(m.load_program(CpuId::kCpu0, count_to(1, 0x9000)),
               "already has a program");
}

TEST(Machine, SingleThreadOwnsAllCycles) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(1000, 0x9000));
  m.run();
  // A lone context is active for the whole wall clock (modulo the final
  // exit-transition cycle); the idle context accumulates nothing.
  const uint64_t active = m.counters().get(CpuId::kCpu0, Event::kCyclesActive);
  EXPECT_LE(m.cycles() - active, 1u);
  EXPECT_EQ(m.counters().get(CpuId::kCpu1, Event::kCyclesActive), 0u);
  EXPECT_EQ(m.counters().get(CpuId::kCpu1, Event::kInstrRetired), 0u);
}

TEST(Machine, DeterministicAcrossInstances) {
  auto run_once = [] {
    Machine m;
    m.load_program(CpuId::kCpu0, count_to(500, 0x9000));
    m.load_program(CpuId::kCpu1, count_to(700, 0x9040));
    m.run();
    return m.cycles();
  };
  const Cycle a = run_once();
  const Cycle b = run_once();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

TEST(Snapshot, DeltaBracketsAnInterval) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(100, 0x9000));
  const perfmon::Snapshot before = m.counters().snapshot();
  m.run();
  const perfmon::Snapshot after = m.counters().snapshot();
  const perfmon::Snapshot delta = after - before;
  EXPECT_EQ(delta.get(CpuId::kCpu0, Event::kInstrRetired),
            after.get(CpuId::kCpu0, Event::kInstrRetired));
  EXPECT_EQ(delta.total(Event::kInstrRetired),
            delta.get(CpuId::kCpu0, Event::kInstrRetired));
}

TEST(PerfCounters, CpiIsCyclesOverInstructions) {
  perfmon::PerfCounters c;
  c.add(CpuId::kCpu0, Event::kCyclesActive, 500);
  c.add(CpuId::kCpu0, Event::kInstrRetired, 250);
  EXPECT_DOUBLE_EQ(c.cpi(CpuId::kCpu0), 2.0);
  EXPECT_DOUBLE_EQ(c.cpi(CpuId::kCpu1), 0.0);  // no instructions: defined 0
}

TEST(PerfCounters, ResetClearsEverything) {
  perfmon::PerfCounters c;
  c.add(CpuId::kCpu1, Event::kL2Misses, 7);
  c.reset();
  EXPECT_EQ(c.total(Event::kL2Misses), 0u);
}

TEST(PerfCounters, ToStringListsNonzeroEvents) {
  perfmon::PerfCounters c;
  c.add(CpuId::kCpu0, Event::kMachineClears, 3);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("machine_clears"), std::string::npos);
  EXPECT_EQ(s.find("ipis_sent"), std::string::npos);
}

TEST(PerfCounters, EveryEventHasAName) {
  for (int e = 0; e < perfmon::kNumEventValues; ++e) {
    EXPECT_NE(perfmon::name(static_cast<Event>(e)), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

class TrivialWorkload : public Workload {
 public:
  explicit TrivialWorkload(bool pass) : pass_(pass) {}
  const std::string& name() const override { return name_; }
  void setup(Machine& m) override { m.memory().write_i64(0xa000, 5); }
  std::vector<isa::Program> programs() const override {
    AsmBuilder a("t");
    a.load(IReg::R0, Mem::abs(0xa000));
    a.iaddi(IReg::R0, IReg::R0, 1);
    a.store(IReg::R0, Mem::abs(0xa000));
    a.exit();
    return {a.take()};
  }
  bool verify(const Machine& m) const override {
    return pass_ && m.memory().read_i64(0xa000) == 6;
  }

 private:
  std::string name_ = "trivial";
  bool pass_;
};

TEST(Runner, RunsAndVerifies) {
  TrivialWorkload w(true);
  const RunStats st = run_workload(MachineConfig{}, w);
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(st.workload, "trivial");
  EXPECT_GT(st.cycles, 0u);
  EXPECT_EQ(st.cpu(CpuId::kCpu0, Event::kStoresRetired), 1u);
}

TEST(Runner, ReportsFailedVerification) {
  TrivialWorkload w(false);
  const RunStats st = run_workload(MachineConfig{}, w);
  EXPECT_FALSE(st.verified);
}

// ---------------------------------------------------------------------------
// Structured run outcomes (try_run_workload)
// ---------------------------------------------------------------------------

/// Halts its only context: no sibling ever sends the wake-up IPI, so the
/// machine has no future event — the canonical lost-wake-up deadlock.
class HaltForeverWorkload : public Workload {
 public:
  const std::string& name() const override { return name_; }
  void setup(Machine&) override {}
  std::vector<isa::Program> programs() const override {
    AsmBuilder a("sleeper");
    a.halt();
    a.exit();
    return {a.take()};
  }
  bool verify(const Machine&) const override { return true; }

 private:
  std::string name_ = "halt-forever";
};

/// Counts to `n` — cheap to make arbitrarily longer than a cycle budget.
class CountWorkload : public Workload {
 public:
  explicit CountWorkload(int n) : n_(n) {}
  const std::string& name() const override { return name_; }
  void setup(Machine&) override {}
  std::vector<isa::Program> programs() const override {
    return {count_to(n_, 0x9000)};
  }
  bool verify(const Machine& m) const override {
    return m.memory().read_i64(0x9000) == n_;
  }

 private:
  std::string name_ = "count";
  int n_;
};

TEST(TryRunWorkload, DeadlockBecomesStructuredOutcome) {
  HaltForeverWorkload w;
  const RunOutcome o = try_run_workload(MachineConfig{}, w);
  EXPECT_EQ(o.status, RunStatus::kDeadlock);
  EXPECT_FALSE(o.ok());
  EXPECT_FALSE(o.message.empty());
  // The partial stats are still real data: identified, unverified, and
  // serializable as a schema-valid report.
  EXPECT_EQ(o.stats.workload, "halt-forever");
  EXPECT_FALSE(o.stats.verified);
  const std::string json = RunReport::from(o.stats).to_json();
  ASSERT_TRUE(parse_json(json).has_value());
}

TEST(TryRunWorkload, WatchdogDeadlockWithoutEventSkip) {
  // With event skipping off there is no "no future event" oracle; the
  // retirement watchdog catches the same hang.
  HaltForeverWorkload w;
  MachineConfig cfg;
  cfg.core.event_skip = false;
  cfg.core.watchdog_cycles = 10'000;
  const RunOutcome o = try_run_workload(cfg, w);
  EXPECT_EQ(o.status, RunStatus::kDeadlock);
}

TEST(TryRunWorkload, CycleBudgetBecomesStructuredOutcome) {
  CountWorkload w(1'000'000'000);
  const RunOutcome o = try_run_workload(MachineConfig{}, w, /*max_cycles=*/1000);
  EXPECT_EQ(o.status, RunStatus::kCycleBudgetExceeded);
  EXPECT_GT(o.stats.cycles, 0u);
  EXPECT_FALSE(o.stats.verified);
}

TEST(TryRunWorkload, VerifyFailureBecomesStructuredOutcome) {
  TrivialWorkload w(false);
  const RunOutcome o = try_run_workload(MachineConfig{}, w);
  EXPECT_EQ(o.status, RunStatus::kVerifyFailed);
  EXPECT_FALSE(o.stats.verified);
  EXPECT_GT(o.stats.cycles, 0u);
}

TEST(TryRunWorkload, OkRunMatchesLegacyPath) {
  TrivialWorkload w(true);
  const RunOutcome o = try_run_workload(MachineConfig{}, w);
  EXPECT_EQ(o.status, RunStatus::kOk);
  EXPECT_TRUE(o.ok());
  EXPECT_TRUE(o.message.empty());
  EXPECT_TRUE(o.stats.verified);
  EXPECT_EQ(o.stats.cpu(CpuId::kCpu0, Event::kStoresRetired), 1u);
}

TEST(TryRunWorkload, CancelHookWindsTheRunDown) {
  CountWorkload w(1'000'000'000);
  const RunOutcome o = try_run_workload(MachineConfig{}, w,
                                        /*max_cycles=*/4'000'000'000ull,
                                        [] { return true; });
  EXPECT_EQ(o.status, RunStatus::kCancelled);
  EXPECT_FALSE(o.message.empty());
}

/// Two counting loops of different lengths, one per logical CPU.
class CountPairWorkload : public Workload {
 public:
  CountPairWorkload(int n0, int n1) : n0_(n0), n1_(n1) {}
  const std::string& name() const override { return name_; }
  void setup(Machine&) override {}
  std::vector<isa::Program> programs() const override {
    return {count_to(n0_, 0x9000), count_to(n1_, 0x9040)};
  }
  bool verify(const Machine& m) const override {
    return m.memory().read_i64(0x9000) == n0_;
  }

 private:
  std::string name_ = "count-pair";
  int n0_, n1_;
};

TEST(TryRunWorkload, UntilFirstDoneMatchesRunUntilAnyDone) {
  // The shorter loop finishes first on either CPU: the non-aborting
  // until-first-done run must stop at the same cycle with the same
  // counters and the same finished context as run_until_any_done.
  for (const auto& [n0, n1] : {std::pair{2'000, 9'000}, std::pair{9'000, 2'000}}) {
    Machine m;
    m.load_program(CpuId::kCpu0, count_to(n0, 0x9000));
    m.load_program(CpuId::kCpu1, count_to(n1, 0x9040));
    const CpuId first = m.run_until_any_done();

    CountPairWorkload w(n0, n1);
    RunOptions opt;
    opt.until_first_done = true;
    const RunOutcome o =
        try_run_workload(MachineConfig{}, w, 4'000'000'000ull, nullptr, opt);
    EXPECT_EQ(first, n0 < n1 ? CpuId::kCpu0 : CpuId::kCpu1);
    EXPECT_EQ(o.status, n0 < n1 ? RunStatus::kOk : RunStatus::kVerifyFailed);
    EXPECT_EQ(o.stats.cycles, m.cycles());
    EXPECT_EQ(o.stats.events.v, m.counters().snapshot().v);

    Machine twin;
    twin.load_program(CpuId::kCpu0, count_to(n0, 0x9000));
    twin.load_program(CpuId::kCpu1, count_to(n1, 0x9040));
    EXPECT_TRUE(twin.try_run_until_any_done().ok());
    EXPECT_TRUE(twin.core().done(first));
    EXPECT_FALSE(twin.core().done(first == CpuId::kCpu0 ? CpuId::kCpu1
                                                        : CpuId::kCpu0));
    EXPECT_EQ(twin.cycles(), m.cycles());
  }
}

TEST(TryRunWorkload, UntilFirstDoneReportsABudgetInsteadOfAborting) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(1'000'000'000, 0x9000));
  m.load_program(CpuId::kCpu1, count_to(1'000'000'000, 0x9040));
  const cpu::RunResult r = m.try_run_until_any_done(/*max_cycles=*/1000);
  EXPECT_EQ(r.termination, cpu::RunTermination::kCycleBudgetExceeded);
}

TEST(TryRunWorkloadDeath, LegacyRunWorkloadStillAbortsOnDeadlock) {
  HaltForeverWorkload w;
  EXPECT_DEATH(run_workload(MachineConfig{}, w), "no future event");
}

TEST(TryRunWorkloadDeath, LegacyMachineRunStillAbortsOnBudget) {
  Machine m;
  m.load_program(CpuId::kCpu0, count_to(1'000'000'000, 0x9000));
  EXPECT_DEATH(m.run(/*max_cycles=*/1000), "max_cycles exceeded");
}

}  // namespace
}  // namespace smt::core
