// Composition tests for the core's observer bus (cpu/observer.h): every
// instrument sees the same uop stream whether it rides the bus alone or
// beside all the others, and attaching any of them leaves every counter
// bit-identical to a detached run — under both event_skip modes. The
// workload is the paper's SPR matmul with halt barriers (worker +
// prefetcher): two contexts, halts, IPIs, barrier episodes and stalls of
// every kind, so every hook fires.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/flight_recorder.h"
#include "core/machine.h"
#include "kernels/matmul.h"
#include "perfmon/counters.h"
#include "perfmon/events.h"
#include "profile/interference.h"
#include "profile/mix_profiler.h"
#include "profile/pc_profiler.h"
#include "trace/pipeview.h"
#include "trace/telemetry.h"

namespace smt {
namespace {

using core::Machine;
using core::MachineConfig;
using kernels::MatMulParams;
using kernels::MatMulWorkload;
using kernels::MmMode;
using perfmon::Event;

/// The instruments riding the bus, as bits of an attachment mask.
enum Instrument : unsigned {
  kMix = 1u << 0,
  kPcProfile = 1u << 1,
  kInterference = 1u << 2,
  kRaceDetector = 1u << 3,
  kTelemetry = 1u << 4,
  kPipeview = 1u << 5,
  kFlightRecorder = 1u << 6,
};
constexpr Instrument kInstruments[] = {kMix,         kPcProfile, kInterference,
                                       kRaceDetector, kTelemetry, kPipeview,
                                       kFlightRecorder};
constexpr unsigned kAllInstruments = (1u << 7) - 1;

const char* name(Instrument i) {
  switch (i) {
    case kMix:            return "mix profiler";
    case kPcProfile:      return "pc profiler";
    case kInterference:   return "interference";
    case kRaceDetector:   return "race detector";
    case kTelemetry:      return "telemetry";
    case kPipeview:       return "pipeview";
    case kFlightRecorder: return "flight recorder";
  }
  return "?";
}

/// What one run leaves behind: its length, every counter, and each
/// attached instrument's output serialized to text.
struct BusRun {
  Cycle cycles = 0;
  perfmon::Snapshot counters;
  std::map<Instrument, std::string> output;
};

std::string mix_output(const profile::MixProfiler& mix) {
  std::ostringstream os;
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    for (int s = 0; s < static_cast<int>(profile::Subunit::kNumSubunits);
         ++s) {
      os << mix.count(static_cast<CpuId>(c), static_cast<profile::Subunit>(s))
         << ' ';
    }
    os << '\n';
  }
  return os.str();
}

std::string pc_output(const profile::PcProfiler& prof) {
  std::ostringstream os;
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    for (const auto& [pc, s] : prof.pcs(static_cast<CpuId>(c))) {
      os << c << ':' << pc << ' ' << s.retired_instrs << ' '
         << s.retired_uops << ' ' << s.l1_misses << ' ' << s.l2_misses;
      for (const uint64_t v : s.stalls) os << ' ' << v;
      for (const uint64_t v : s.port_uops) os << ' ' << v;
      os << '\n';
    }
  }
  return os.str();
}

std::string interference_output(const profile::InterferenceProfiler& prof) {
  std::ostringstream os;
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const profile::CpuInterference& s = prof.stats(static_cast<CpuId>(c));
    for (const auto* row : {&s.self, &s.sibling}) {
      for (const uint64_t v : *row) os << v << ' ';
    }
    for (const auto* row : {&s.port_self, &s.port_sibling}) {
      for (const uint64_t v : *row) os << v << ' ';
    }
    os << s.l2_sibling_evictions << '\n';
  }
  return os.str();
}

// The detector runs unconfigured, so the barrier flags count as data
// words and race: a non-trivial fingerprint of the access stream.
std::string race_output(const analysis::RaceDetector& det) {
  std::ostringstream os;
  os << det.total_races() << '\n';
  for (const analysis::RaceReport& r : det.races()) {
    os << det.describe(r) << '\n';
  }
  return os.str();
}

std::string flight_output(const core::FlightRecorder& fr) {
  std::ostringstream os;
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    for (const auto& e : fr.recent(cpu)) os << e.cycle << ':' << e.pc << ' ';
    os << '\n';
    for (const auto& s : fr.snapshots(cpu)) {
      os << s.cycle << ' ' << s.state.mode << ' ' << s.state.rob_occupancy
         << ' ' << s.state.uq_occupancy << ' ' << s.state.lq_used << ' '
         << s.state.sb_used << '\n';
    }
  }
  return os.str();
}

BusRun run_spr_matmul(unsigned attach, bool event_skip) {
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  p.halt_barriers = true;
  MatMulWorkload w(p);
  MachineConfig cfg;
  cfg.core.event_skip = event_skip;
  Machine m(cfg);
  profile::MixProfiler mix;
  if (attach & kMix) m.core().add_observer(&mix);
  if (attach & kPcProfile) m.enable_pc_profiler();
  if (attach & kInterference) m.enable_interference();
  if (attach & kRaceDetector) m.enable_race_detector();
  if (attach & kTelemetry) {
    trace::TelemetryConfig tc;
    tc.enabled = true;
    tc.sample_window = 256;
    m.enable_telemetry(tc);
  }
  if (attach & kPipeview) m.enable_pipeview({});
  if (attach & kFlightRecorder) m.enable_flight_recorder();
  w.setup(m);
  const std::vector<isa::Program> progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  m.run();
  EXPECT_TRUE(w.verify(m));

  BusRun r;
  r.cycles = m.cycles();
  r.counters = m.counters().snapshot();
  if (attach & kMix) r.output[kMix] = mix_output(mix);
  if (attach & kPcProfile) r.output[kPcProfile] = pc_output(*m.pc_profiler());
  if (attach & kInterference) {
    m.finalize_interference();
    r.output[kInterference] = interference_output(*m.interference());
  }
  if (attach & kRaceDetector) {
    r.output[kRaceDetector] = race_output(*m.race_detector());
  }
  if (attach & kTelemetry) {
    m.telemetry()->finalize(m.cycles());
    r.output[kTelemetry] = trace::chrome_trace_json(*m.telemetry());
  }
  if (attach & kPipeview) r.output[kPipeview] = m.pipeview()->to_kanata();
  if (attach & kFlightRecorder) {
    r.output[kFlightRecorder] = flight_output(*m.flight_recorder());
  }
  return r;
}

void expect_same_counters(const BusRun& a, const BusRun& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const Event ev = static_cast<Event>(e);
      EXPECT_EQ(a.counters.get(cpu, ev), b.counters.get(cpu, ev))
          << "cpu" << c << " " << perfmon::name(ev);
    }
  }
}

TEST(ObserverBus, EachInstrumentIsUnchangedByItsCompanions) {
  for (const bool event_skip : {true, false}) {
    SCOPED_TRACE(event_skip ? "event_skip on" : "event_skip off");
    const BusRun detached = run_spr_matmul(0, event_skip);
    const BusRun all = run_spr_matmul(kAllInstruments, event_skip);
    expect_same_counters(all, detached);
    for (const Instrument i : kInstruments) {
      SCOPED_TRACE(name(i));
      const BusRun alone = run_spr_matmul(i, event_skip);
      expect_same_counters(alone, detached);
      ASSERT_EQ(alone.output.size(), 1u);
      EXPECT_GT(alone.output.at(i).size(), 16u);  // the hooks fired
      EXPECT_EQ(alone.output.at(i), all.output.at(i));
    }
  }
}

TEST(ObserverBus, OutputsBitIdenticalAcrossEventSkip) {
  const BusRun skip = run_spr_matmul(kAllInstruments, true);
  const BusRun step = run_spr_matmul(kAllInstruments, false);
  for (const Instrument i : kInstruments) {
    EXPECT_EQ(skip.output.at(i), step.output.at(i)) << name(i);
  }
}

TEST(ObserverBus, PerPcCountsSumToMixProfilerAndCounters) {
  // The per-PC attribution must be a refinement of the Table-1 mix: on the
  // SPR matmul, grouping each context's per-PC retired-instruction counts
  // by the PC's execution subunit reproduces the MixProfiler totals
  // exactly, and the per-PC retired-uop counts sum to kUopsRetired. Both
  // profilers ride the same bus in the same run.
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  MatMulWorkload w(p);
  Machine m{};
  profile::MixProfiler mix;
  profile::PcProfiler pcs;
  m.core().add_observer(&mix);
  m.core().add_observer(&pcs);
  w.setup(m);
  const std::vector<isa::Program> progs = w.programs();
  m.load_program(CpuId::kCpu0, progs[0]);
  m.load_program(CpuId::kCpu1, progs[1]);
  m.run();
  EXPECT_TRUE(w.verify(m));
  constexpr int kSubunits = static_cast<int>(profile::Subunit::kNumSubunits);
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    const isa::Program& prog = progs[static_cast<size_t>(c)];
    uint64_t by_subunit[kSubunits] = {};
    uint64_t instrs = 0;
    uint64_t uops = 0;
    for (const auto& [pc, s] : pcs.pcs(cpu)) {
      ASSERT_LT(pc, prog.size());
      const profile::Subunit su =
          profile::subunit_of(isa::unit_class(prog.at(pc).op));
      by_subunit[static_cast<int>(su)] += s.retired_instrs;
      instrs += s.retired_instrs;
      uops += s.retired_uops;
    }
    for (int s = 0; s < kSubunits; ++s) {
      const auto su = static_cast<profile::Subunit>(s);
      EXPECT_EQ(by_subunit[s], mix.count(cpu, su))
          << "cpu" << c << " subunit " << profile::name(su);
    }
    EXPECT_EQ(instrs, m.counters().get(cpu, Event::kInstrRetired));
    EXPECT_EQ(uops, m.counters().get(cpu, Event::kUopsRetired));
  }
}

}  // namespace
}  // namespace smt
