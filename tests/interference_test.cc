// Tests for the SMT interference attribution profiler and its hard
// guarantees: attaching it never perturbs any perf counter, per stall
// reason the self- plus sibling-blamed cycles reproduce the existing
// stall counters bit-exactly, the port-conflict decomposition is
// internally consistent and cap-bounded, and every attribution is
// bit-identical between event-skip fast-forward and single-cycle
// stepping.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/json.h"
#include "core/machine.h"
#include "core/report_check.h"
#include "core/run_report.h"
#include "cpu/core.h"
#include "kernels/matmul.h"
#include "perfmon/counters.h"
#include "perfmon/events.h"
#include "profile/interference.h"

namespace smt::profile {
namespace {

using core::Machine;
using core::MachineConfig;
using cpu::BlockReason;
using cpu::IssuePort;
using kernels::MatMulParams;
using kernels::MatMulWorkload;
using kernels::MmMode;
using perfmon::Event;

struct SimRun {
  std::unique_ptr<Machine> m;
  std::unique_ptr<MatMulWorkload> w;
  std::shared_ptr<InterferenceProfiler> prof;  // null for plain runs
};

/// The paper's SPR matmul (worker + prefetcher): two co-resident
/// contexts competing for every shared structure — the richest
/// interference source in the suite.
SimRun run_spr_matmul(bool attributed, bool event_skip) {
  SimRun r;
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  r.w = std::make_unique<MatMulWorkload>(p);
  MachineConfig cfg;
  cfg.core.event_skip = event_skip;
  r.m = std::make_unique<Machine>(cfg);
  if (attributed) r.m->enable_interference();
  r.w->setup(*r.m);
  const std::vector<isa::Program> progs = r.w->programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    r.m->load_program(static_cast<CpuId>(i), progs[i]);
  }
  r.m->run();
  EXPECT_TRUE(r.w->verify(*r.m));
  r.m->finalize_interference();
  r.prof = r.m->interference();
  return r;
}

void expect_same_counters(const Machine& a, const Machine& b) {
  EXPECT_EQ(a.cycles(), b.cycles());
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const Event ev = static_cast<Event>(e);
      EXPECT_EQ(a.counters().get(cpu, ev), b.counters().get(cpu, ev))
          << "cpu" << c << " " << perfmon::name(ev);
    }
  }
}

// ---------------------------------------------------------------------------
// Guarantee 1: attaching the profiler never changes a measurement.
// ---------------------------------------------------------------------------

TEST(Interference, AttributionDoesNotPerturbAnyCounter) {
  for (const bool event_skip : {false, true}) {
    const SimRun plain = run_spr_matmul(/*attributed=*/false, event_skip);
    const SimRun attributed = run_spr_matmul(/*attributed=*/true, event_skip);
    ASSERT_EQ(plain.prof, nullptr);
    ASSERT_NE(attributed.prof, nullptr);
    expect_same_counters(*plain.m, *attributed.m);
  }
}

// ---------------------------------------------------------------------------
// Guarantee 2: attributions are exact under event-skip fast-forward.
// ---------------------------------------------------------------------------

TEST(Interference, AttributionsBitIdenticalAcrossEventSkip) {
  const SimRun fast = run_spr_matmul(/*attributed=*/true, /*event_skip=*/true);
  const SimRun slow = run_spr_matmul(/*attributed=*/true,
                                     /*event_skip=*/false);
  expect_same_counters(*fast.m, *slow.m);
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    const CpuInterference& a = fast.prof->stats(cpu);
    const CpuInterference& b = slow.prof->stats(cpu);
    EXPECT_EQ(a.self, b.self) << "cpu" << c;
    EXPECT_EQ(a.sibling, b.sibling) << "cpu" << c;
    EXPECT_EQ(a.port_self, b.port_self) << "cpu" << c;
    EXPECT_EQ(a.port_sibling, b.port_sibling) << "cpu" << c;
    EXPECT_EQ(a.l2_sibling_evictions, b.l2_sibling_evictions) << "cpu" << c;
  }
}

// ---------------------------------------------------------------------------
// Guarantee 3: self + sibling reproduce the stall counters bit-exactly,
// and the port decomposition is consistent and cap-bounded.
// ---------------------------------------------------------------------------

TEST(Interference, SelfPlusSiblingSumsMatchStallCounters) {
  const SimRun r = run_spr_matmul(/*attributed=*/true, /*event_skip=*/true);
  const struct {
    BlockReason reason;
    Event counter;
  } backed[] = {
      {BlockReason::kRob, Event::kRobStallCycles},
      {BlockReason::kLoadQueue, Event::kLoadQueueStallCycles},
      {BlockReason::kStoreBuffer, Event::kStoreBufferStallCycles},
      {BlockReason::kUopQueueFull, Event::kUopQueueFullCycles},
  };
  uint64_t any_sibling = 0;
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    const CpuInterference& s = r.prof->stats(cpu);
    for (const auto& [reason, counter] : backed) {
      EXPECT_EQ(s.total(reason), r.m->counters().get(cpu, counter))
          << "cpu" << c << " " << cpu::name(reason);
    }
    // The per-port decomposition partitions the kPortConflict cycles.
    uint64_t port_self = 0, port_sibling = 0;
    for (const uint64_t v : s.port_self) port_self += v;
    for (const uint64_t v : s.port_sibling) port_sibling += v;
    EXPECT_EQ(port_self, s.self[static_cast<int>(BlockReason::kPortConflict)])
        << "cpu" << c;
    EXPECT_EQ(port_sibling,
              s.sibling[static_cast<int>(BlockReason::kPortConflict)])
        << "cpu" << c;
    // No port can be blamed for more cycles than it could possibly be
    // contended: its per-cycle cap times the run length.
    const auto& core_cfg = r.m->config().core;
    const uint64_t cycles = r.m->cycles();
    const auto cap = [&core_cfg](int port) -> uint64_t {
      if (port == static_cast<int>(IssuePort::kAlu0)) {
        return core_cfg.alu0_per_cycle;
      }
      if (port == static_cast<int>(IssuePort::kAlu1)) {
        return core_cfg.alu1_per_cycle;
      }
      return 1;
    };
    for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
      EXPECT_LE(s.port_self[p] + s.port_sibling[p], cap(p) * cycles)
          << "cpu" << c << " " << cpu::name(static_cast<IssuePort>(p));
    }
    any_sibling += s.sibling_total();
  }
  // Two co-resident contexts hammering shared structures must actually
  // interfere — an all-zero sibling ledger would mean dead hooks.
  EXPECT_GT(any_sibling, 0u);
}

// ---------------------------------------------------------------------------
// Report surface: attributed runs carry an `interference` section.
// ---------------------------------------------------------------------------

TEST(Interference, AttributedReportCarriesInterferenceSection) {
  const SimRun r = run_spr_matmul(/*attributed=*/true, /*event_skip=*/true);
  const std::string json =
      core::report_from_machine(*r.m, "spr_matmul", true).to_json();
  const auto v = parse_json(json);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("schema")->string, "smt-run-report/1");
  EXPECT_EQ(core::check_run_report(*v), std::nullopt);
  const JsonValue* inter = v->find("interference");
  ASSERT_NE(inter, nullptr);
  ASSERT_TRUE(inter->is_array());
  ASSERT_EQ(inter->array.size(), static_cast<size_t>(kNumLogicalCpus));
  for (const JsonValue& e : inter->array) {
    for (const char* key :
         {"self", "sibling", "port_conflict", "l2_sibling_evictions"}) {
      EXPECT_NE(e.find(key), nullptr) << key;
    }
    // Every block reason appears in both blame maps.
    for (int b = 0; b < cpu::kNumBlockReasons; ++b) {
      const char* rname = cpu::name(static_cast<BlockReason>(b));
      EXPECT_NE(e.find("self")->find(rname), nullptr) << rname;
      EXPECT_NE(e.find("sibling")->find(rname), nullptr) << rname;
    }
  }

  // A plain machine reports the same schema with no interference key.
  const SimRun plain = run_spr_matmul(/*attributed=*/false,
                                      /*event_skip=*/true);
  const std::string plain_json =
      core::report_from_machine(*plain.m, "spr_matmul", true).to_json();
  EXPECT_NE(plain_json.find("smt-run-report/1"), std::string::npos);
  EXPECT_EQ(plain_json.find("\"interference\""), std::string::npos);
}

}  // namespace
}  // namespace smt::profile
