// Tests for the per-PC attribution profiler and its hard guarantees:
// attaching it never perturbs any perf counter, every counter-backed
// attribution sums exactly to its counter, and all attributions are
// bit-identical between event-skip fast-forward and single-cycle stepping
// (the skipped-window replay must be exact, not approximate).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/json.h"
#include "core/machine.h"
#include "core/report_check.h"
#include "core/run_report.h"
#include "cpu/core.h"
#include "isa/opcode.h"
#include "kernels/matmul.h"
#include "perfmon/counters.h"
#include "perfmon/events.h"
#include "profile/pc_profiler.h"

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
  std::shared_ptr<PcProfiler> prof;  // null for unprofiled runs
  std::vector<isa::Program> progs;
};

/// The paper's SPR matmul (worker + prefetcher): two contexts, all stall
/// flavors, and a long halt/spin tail — the richest attribution source.
SimRun run_spr_matmul(bool profiled, bool event_skip, bool halt_barriers) {
  SimRun r;
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  p.halt_barriers = halt_barriers;
  r.w = std::make_unique<MatMulWorkload>(p);
  MachineConfig cfg;
  cfg.core.event_skip = event_skip;
  r.m = std::make_unique<Machine>(cfg);
  if (profiled) r.m->enable_pc_profiler();
  r.w->setup(*r.m);
  r.progs = r.w->programs();
  for (size_t i = 0; i < r.progs.size(); ++i) {
    r.m->load_program(static_cast<CpuId>(i), r.progs[i]);
  }
  r.m->run();
  EXPECT_TRUE(r.w->verify(*r.m));
  r.prof = r.m->pc_profiler();
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

void expect_same_attributions(const PcProfiler& a, const PcProfiler& b) {
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    EXPECT_EQ(a.port_totals(cpu), b.port_totals(cpu)) << "cpu" << c;
    const auto& pa = a.pcs(cpu);
    const auto& pb = b.pcs(cpu);
    ASSERT_EQ(pa.size(), pb.size()) << "cpu" << c;
    auto ib = pb.begin();
    for (const auto& [pc, sa] : pa) {
      ASSERT_EQ(pc, ib->first) << "cpu" << c;
      const PcStats& sb = ib->second;
      EXPECT_EQ(sa.retired_instrs, sb.retired_instrs) << "pc " << pc;
      EXPECT_EQ(sa.retired_uops, sb.retired_uops) << "pc " << pc;
      EXPECT_EQ(sa.l1_misses, sb.l1_misses) << "pc " << pc;
      EXPECT_EQ(sa.l2_misses, sb.l2_misses) << "pc " << pc;
      EXPECT_EQ(sa.stalls, sb.stalls) << "pc " << pc;
      EXPECT_EQ(sa.port_uops, sb.port_uops) << "pc " << pc;
      ++ib;
    }
  }
}

// ---------------------------------------------------------------------------
// Guarantee 1: attaching the profiler never changes a measurement.
// ---------------------------------------------------------------------------

TEST(PcProfiler, ProfilingDoesNotPerturbAnyCounter) {
  for (const bool event_skip : {false, true}) {
    const SimRun plain = run_spr_matmul(/*profiled=*/false, event_skip,
                                     /*halt_barriers=*/true);
    const SimRun profiled = run_spr_matmul(/*profiled=*/true, event_skip,
                                        /*halt_barriers=*/true);
    ASSERT_EQ(plain.prof, nullptr);
    ASSERT_NE(profiled.prof, nullptr);
    expect_same_counters(*plain.m, *profiled.m);
  }
}

// ---------------------------------------------------------------------------
// Guarantee 2: attributions are exact under event-skip fast-forward.
// ---------------------------------------------------------------------------

TEST(PcProfiler, AttributionsBitIdenticalAcrossEventSkip) {
  for (const bool halt_barriers : {false, true}) {
    const SimRun fast = run_spr_matmul(/*profiled=*/true, /*event_skip=*/true,
                                    halt_barriers);
    const SimRun slow = run_spr_matmul(/*profiled=*/true, /*event_skip=*/false,
                                    halt_barriers);
    expect_same_counters(*fast.m, *slow.m);
    expect_same_attributions(*fast.prof, *slow.prof);
  }
}

// ---------------------------------------------------------------------------
// Guarantee 3: counter-backed attributions sum exactly to the counters.
// ---------------------------------------------------------------------------

TEST(PcProfiler, PerPcSumsMatchCounters) {
  const SimRun r = run_spr_matmul(/*profiled=*/true, /*event_skip=*/true,
                               /*halt_barriers=*/true);
  uint64_t port_all[cpu::kNumIssuePorts] = {};
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    uint64_t instrs = 0, uops = 0, l1 = 0, l2 = 0;
    uint64_t stalls[cpu::kNumBlockReasons] = {};
    uint64_t ports[cpu::kNumIssuePorts] = {};
    for (const auto& [pc, s] : r.prof->pcs(cpu)) {
      instrs += s.retired_instrs;
      uops += s.retired_uops;
      l1 += s.l1_misses;
      l2 += s.l2_misses;
      for (int i = 0; i < cpu::kNumBlockReasons; ++i) stalls[i] += s.stalls[i];
      for (int i = 0; i < cpu::kNumIssuePorts; ++i) ports[i] += s.port_uops[i];
    }
    const auto get = [&](Event e) { return r.m->counters().get(cpu, e); };
    EXPECT_EQ(instrs, get(Event::kInstrRetired));
    EXPECT_EQ(uops, get(Event::kUopsRetired));
    EXPECT_EQ(l1, get(Event::kL1Misses));
    EXPECT_EQ(l2, get(Event::kL2Misses));
    EXPECT_EQ(stalls[static_cast<int>(BlockReason::kRob)],
              get(Event::kRobStallCycles));
    EXPECT_EQ(stalls[static_cast<int>(BlockReason::kLoadQueue)],
              get(Event::kLoadQueueStallCycles));
    EXPECT_EQ(stalls[static_cast<int>(BlockReason::kStoreBuffer)],
              get(Event::kStoreBufferStallCycles));
    EXPECT_EQ(stalls[static_cast<int>(BlockReason::kUopQueueFull)],
              get(Event::kUopQueueFullCycles));
    // The per-PC port attributions must reproduce the per-context totals,
    // and issued kNone uops are the only uops without a port.
    uint64_t context_total = 0;
    for (int i = 0; i < cpu::kNumIssuePorts; ++i) {
      EXPECT_EQ(ports[i], r.prof->port_totals(cpu)[i]);
      context_total += ports[i];
      port_all[i] += ports[i];
    }
    EXPECT_LE(context_total, get(Event::kIssuedUops));
  }
  // Shared-port caps bound the combined occupancy over the whole run
  // (double-speed ALUs fire twice per cycle, the rest once).
  const auto& core_cfg = r.m->config().core;
  const uint64_t cycles = r.m->cycles();
  EXPECT_LE(port_all[static_cast<int>(IssuePort::kAlu0)],
            static_cast<uint64_t>(core_cfg.alu0_per_cycle) * cycles);
  EXPECT_LE(port_all[static_cast<int>(IssuePort::kAlu1)],
            static_cast<uint64_t>(core_cfg.alu1_per_cycle) * cycles);
  for (const IssuePort p : {IssuePort::kFp, IssuePort::kFpMove,
                            IssuePort::kLoad, IssuePort::kStore}) {
    EXPECT_LE(port_all[static_cast<int>(p)], cycles);
  }
}

// ---------------------------------------------------------------------------
// The paper's signature: ALU0 serialization of the mask-heavy MM.
// ---------------------------------------------------------------------------

TEST(PcProfiler, Alu0TrafficConcentratesOnMaskInstructions) {
  // The blocked-array-layout MM recomputes dilated indices with
  // logical/shift (ALU0-only) instructions; their PCs must dominate the
  // ALU0 port traffic over branches and spilled-over simple-ALU uops.
  MatMulParams p;
  p.n = 32;
  p.tile = 8;
  p.mode = MmMode::kSerial;
  MatMulWorkload w(p);
  Machine m{};
  m.enable_pc_profiler();
  w.setup(m);
  const isa::Program prog = w.programs()[0];
  m.load_program(CpuId::kCpu0, prog);
  m.run();
  EXPECT_TRUE(w.verify(m));
  const auto prof = m.pc_profiler();
  const int kAlu0Port = static_cast<int>(IssuePort::kAlu0);
  uint64_t total_alu0 = 0, mask_alu0 = 0, best = 0;
  isa::UnitClass best_unit = isa::UnitClass::kNone;
  for (const auto& [pc, s] : prof->pcs(CpuId::kCpu0)) {
    const uint64_t n = s.port_uops[kAlu0Port];
    total_alu0 += n;
    ASSERT_LT(pc, prog.size());
    const isa::UnitClass u = isa::unit_class(prog.at(pc).op);
    if (u == isa::UnitClass::kAlu0) mask_alu0 += n;
    if (n > best) {
      best = n;
      best_unit = u;
    }
  }
  ASSERT_GT(total_alu0, 0u);
  // The single busiest ALU0 PC is a logical/shift (mask) instruction, and
  // mask instructions carry the majority of the port's traffic.
  EXPECT_EQ(best_unit, isa::UnitClass::kAlu0);
  EXPECT_GT(static_cast<double>(mask_alu0),
            0.5 * static_cast<double>(total_alu0));
}

// ---------------------------------------------------------------------------
// Report surface: profiled runs carry a `profile` section.
// ---------------------------------------------------------------------------

TEST(PcProfiler, ProfiledReportCarriesProfileSection) {
  const SimRun r = run_spr_matmul(/*profiled=*/true, /*event_skip=*/true,
                               /*halt_barriers=*/false);
  const core::RunReport rep =
      core::report_from_machine(*r.m, "spr_matmul", true);
  const std::string json = rep.to_json();
  const auto v = parse_json(json);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("schema")->string, "smt-run-report/1");
  EXPECT_EQ(core::check_run_report(*v), std::nullopt);
  const JsonValue* prof = v->find("profile");
  ASSERT_NE(prof, nullptr);
  for (const char* key : {"hotspots", "port_occupancy",
                          "port_caps_per_cycle"}) {
    EXPECT_NE(prof->find(key), nullptr) << key;
  }
  const JsonValue* hotspots = prof->find("hotspots");
  ASSERT_TRUE(hotspots->is_array());
  ASSERT_EQ(hotspots->array.size(), static_cast<size_t>(kNumLogicalCpus));
  const JsonValue* pcs = hotspots->array[0].find("pcs");
  ASSERT_NE(pcs, nullptr);
  ASSERT_FALSE(pcs->array.empty());
  // Entries are self-contained: they carry the disassembly.
  const JsonValue* disasm = pcs->array[0].find("disasm");
  ASSERT_NE(disasm, nullptr);
  EXPECT_FALSE(disasm->string.empty());

  // An unprofiled machine reports the same schema without the section.
  const SimRun plain = run_spr_matmul(/*profiled=*/false, /*event_skip=*/true,
                                   /*halt_barriers=*/false);
  const std::string plain_json =
      core::report_from_machine(*plain.m, "spr_matmul", true).to_json();
  EXPECT_NE(plain_json.find("smt-run-report/1"), std::string::npos);
  EXPECT_EQ(plain_json.find("\"profile\""), std::string::npos);
}

}  // namespace
}  // namespace smt::profile
