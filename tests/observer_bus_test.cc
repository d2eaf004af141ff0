// Composition tests for the core's observer bus (cpu/observer.h): every
// instrument sees the same uop stream whether it rides the bus alone or
// beside all the others, and attaching any of them leaves every counter
// bit-identical to a detached run — under both event_skip modes. The
// workload is the paper's SPR matmul with halt barriers (worker +
// prefetcher): two contexts, halts, IPIs, barrier episodes and stalls of
// every kind, so every hook fires.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/flight_recorder.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "host/experiments.h"
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

/// Counts the calls of every hook. Not final, so it subscribes to every
/// hook through any pointer type.
class HookCountsBase : public cpu::PipelineObserver {
 public:
  void on_fetch(CpuId, const cpu::DynUop&, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kFetch)];
  }
  void on_dispatch(CpuId, const cpu::DynUop&, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kDispatch)];
  }
  void on_issue(CpuId, const cpu::DynUop&, int, Cycle, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kIssue)];
  }
  void on_retire(CpuId, const cpu::DynUop&, int, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kRetire)];
  }
  void on_block(CpuId, cpu::BlockReason, uint32_t, bool, int, Cycle,
                Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kBlock)];
  }
  void on_demand_miss(CpuId, uint32_t, bool, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kDemandMiss)];
  }
  void on_guest_access(CpuId, uint32_t, Addr, cpu::GuestAccess, uint64_t,
                       Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kGuestAccess)];
  }
  void on_ipi_send(CpuId, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kIpiSend)];
  }
  void on_ipi_wake(CpuId, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kIpiWake)];
  }
  void on_halt_enter(CpuId, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kHaltEnter)];
  }
  void on_halt_exit(CpuId, Cycle) override {
    ++calls[static_cast<int>(cpu::Hook::kHaltExit)];
  }

  std::array<uint64_t, cpu::kNumHooks> calls{};
};
class HookCounts final : public HookCountsBase {};

/// The SPR matmul every test here runs: worker + prefetcher with halt
/// barriers.
MatMulParams spr_matmul() {
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  p.halt_barriers = true;
  return p;
}

BusRun run_spr_matmul(unsigned attach, bool event_skip) {
  MatMulWorkload w(spr_matmul());
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

// ---------------------------------------------------------------------------
// Per-hook subscription
// ---------------------------------------------------------------------------

using cpu::bit;
using cpu::Hook;

TEST(ObserverBus, ProductionObserversSubscribeToExactlyTheHooksTheyOverride) {
  EXPECT_EQ(cpu::hooks_of<profile::PcProfiler>(),
            bit(Hook::kIssue) | bit(Hook::kBlock) | bit(Hook::kDemandMiss) |
                bit(Hook::kRetire));
  EXPECT_EQ(cpu::hooks_of<profile::InterferenceProfiler>(), bit(Hook::kBlock));
  EXPECT_EQ(cpu::hooks_of<profile::MixProfiler>(), bit(Hook::kRetire));
  EXPECT_EQ(cpu::hooks_of<core::FlightRecorder>(), bit(Hook::kRetire));
  EXPECT_EQ(cpu::hooks_of<analysis::RaceDetector>(),
            bit(Hook::kGuestAccess) | bit(Hook::kIpiSend) |
                bit(Hook::kIpiWake));
  EXPECT_EQ(cpu::hooks_of<trace::TraceRecorder>(),
            bit(Hook::kHaltEnter) | bit(Hook::kHaltExit) |
                bit(Hook::kIpiSend) | bit(Hook::kIpiWake) |
                bit(Hook::kDemandMiss) | bit(Hook::kGuestAccess));
  EXPECT_EQ(cpu::hooks_of<trace::PipeViewRecorder>(),
            bit(Hook::kFetch) | bit(Hook::kDispatch) | bit(Hook::kIssue) |
                bit(Hook::kRetire));
  // Without a final class the dynamic type may override anything.
  EXPECT_EQ(cpu::hooks_of<cpu::PipelineObserver>(), cpu::kAllHooks);
  EXPECT_EQ(cpu::hooks_of<HookCountsBase>(), cpu::kAllHooks);
  // Overrides in a class between T and PipelineObserver count as T's.
  EXPECT_EQ(cpu::hooks_of<HookCounts>(), cpu::kAllHooks);
}

TEST(ObserverBus, BasePointerObserverReceivesEveryHook) {
  // A final observer overriding every hook, attached through a plain
  // PipelineObserver*, beside a MixProfiler (subscribed to retire only).
  MatMulWorkload w(spr_matmul());
  Machine m{};
  HookCounts counts;
  profile::MixProfiler mix;
  cpu::PipelineObserver* plain = &counts;
  m.core().add_observer(plain);
  m.core().add_observer(&mix);
  w.setup(m);
  const std::vector<isa::Program> progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  m.run();
  EXPECT_TRUE(w.verify(m));
  for (int h = 0; h < cpu::kNumHooks; ++h) {
    EXPECT_GT(counts.calls[h], 0u) << "hook " << h;
  }
  uint64_t retired = 0;
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    EXPECT_EQ(mix.total(cpu), m.counters().get(cpu, Event::kInstrRetired));
    retired += mix.total(cpu);
  }
  EXPECT_EQ(counts.calls[static_cast<int>(Hook::kRetire)], retired);
}

// ---------------------------------------------------------------------------
// Golden hook-stream digests
// ---------------------------------------------------------------------------

/// Folds every on_issue, on_block and on_retire argument, in call order,
/// into one FNV-1a digest (each record is hashed together with the digest
/// so far, as little-endian 64-bit words). It asks for issue blocks, so
/// the digest pins each uop's issue cycle, port and completion cycle, the
/// retire stream, and the issue-stage block attribution.
class HookDigest : public cpu::PipelineObserver {
 public:
  bool wants_issue_blocks() const override { return true; }

  void on_issue(CpuId cpu, const cpu::DynUop& uop, int port, Cycle done,
                Cycle now) override {
    fold({'i', static_cast<uint64_t>(cpu), uop.uid, uop.pc,
          static_cast<uint64_t>(port), done, now});
  }
  void on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc,
                bool sibling, int port, Cycle cycles, Cycle now) override {
    fold({'b', static_cast<uint64_t>(cpu), static_cast<uint64_t>(reason), pc,
          sibling ? 1u : 0u, static_cast<uint64_t>(port), cycles, now});
  }
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override {
    fold({'r', static_cast<uint64_t>(cpu), uop.uid, uop.pc,
          static_cast<uint64_t>(uops), now});
  }

  /// "<16 hex digits of the digest>/<number of records folded>".
  std::string hex() const {
    char out[40];
    std::snprintf(out, sizeof out, "%016llx/%llu",
                  static_cast<unsigned long long>(digest_),
                  static_cast<unsigned long long>(records_));
    return out;
  }

 private:
  static void put(std::string& out, uint64_t w) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>(w >> (8 * b)));
  }
  void fold(std::initializer_list<uint64_t> words) {
    buf_.clear();
    put(buf_, digest_);
    for (const uint64_t w : words) put(buf_, w);
    digest_ = fnv1a64(buf_);
    ++records_;
  }

  uint64_t digest_ = 0;
  uint64_t records_ = 0;
  std::string buf_;
};

/// Runs `w` to completion on a default machine with a HookDigest attached.
std::string hook_digest(core::Workload& w) {
  Machine m{};
  HookDigest digest;
  m.core().add_observer(&digest);
  w.setup(m);
  const std::vector<isa::Program> progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  m.run();
  EXPECT_TRUE(w.verify(m));
  return digest.hex();
}

// Expected values are "digest/records". Any change to issue order, issue
// block attribution or retirement timing changes them, so only an
// intentional timing-model change may re-take them.
TEST(ObserverBus, HookStreamDigestOfTheSprMatmulIsGolden) {
  MatMulWorkload w(spr_matmul());
  EXPECT_EQ(hook_digest(w), "5bcdde411639e07f/136454");
}

TEST(ObserverBus, HookStreamDigestOfTlpFineMatmulIsGolden) {
  const host::ExperimentDef* def = host::find_experiment("mm.tlp-fine.n64");
  ASSERT_NE(def, nullptr);
  const std::unique_ptr<core::Workload> w = def->make();
  EXPECT_EQ(hook_digest(*w), "60870733e63ea8dc/7897099");
}

// Two contexts with fdiv pivots: the one golden run that exercises an
// unpipelined divider and its kDividerBusy attribution.
TEST(ObserverBus, HookStreamDigestOfTlpCoarseLuIsGolden) {
  const host::ExperimentDef* def = host::find_experiment("lu.tlp-coarse.n64");
  ASSERT_NE(def, nullptr);
  const std::unique_ptr<core::Workload> w = def->make();
  EXPECT_EQ(hook_digest(*w), "41f43c64915566ff/1721161");
}

// ---------------------------------------------------------------------------
// Golden instrument-output digests
// ---------------------------------------------------------------------------

// The hook-stream digests pin the bus; these pin what each instrument
// builds from it. The pipeview window starts mid-run and its max_uops cap
// is hit, so the recorder's first captured uid is nonzero and late hooks
// land past the cap.
constexpr trace::PipeViewConfig kMidRunPipeview{
    .begin = 50'000, .end = 200'000, .max_uops = 4096};

/// Runs registry job `name` with every production instrument attached
/// (telemetry, per-PC and interference profilers, an unconfigured race
/// detector, the mid-run pipeview and the flight recorder) and returns
/// "<output> <fnv1a64>/<bytes>" for the run report JSON, the Kanata log,
/// the Chrome trace JSON and the race detector's summary.
std::string instrument_digests(const char* name) {
  const host::ExperimentDef* def = host::find_experiment(name);
  EXPECT_NE(def, nullptr);
  if (def == nullptr) return "";
  const std::unique_ptr<core::Workload> w = def->make();
  Machine m{};
  trace::TelemetryConfig tc;
  tc.enabled = true;
  tc.pc_profile = true;
  m.enable_telemetry(tc);
  m.enable_interference();
  m.enable_race_detector();
  m.enable_pipeview(kMidRunPipeview);
  m.enable_flight_recorder();
  w->setup(m);
  std::vector<isa::Program> progs = w->programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), std::move(progs[i]));
  }
  m.run();
  const core::RunStats stats =
      core::stats_from_machine(m, w->name(), w->verify(m));
  EXPECT_TRUE(stats.verified);
  EXPECT_GT(m.pipeview()->dropped(), 0u);  // the cap was hit

  std::string out;
  const auto fold = [&out](const char* what, const std::string& text) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s %s/%zu", out.empty() ? "" : " ",
                  what, fnv1a64_hex(text).c_str(), text.size());
    out += buf;
  };
  fold("report", core::RunReport::from(stats).to_json());
  fold("kanata", m.pipeview()->to_kanata());
  fold("trace", trace::chrome_trace_json(*m.telemetry()));
  fold("race", m.race_detector()->summary());
  return out;
}

TEST(ObserverBus, InstrumentOutputDigestOfTlpCoarseMatmulIsGolden) {
  EXPECT_EQ(instrument_digests("mm.tlp-coarse.n64"),
            "report 3040d2e550a2d13a/114439 kanata 059cfe9659b0b85c/694230 "
            "trace 4aa0abfc964aa614/67792 race cbf29ce484222325/0");
}

TEST(ObserverBus, InstrumentOutputDigestOfTlpCoarseLuIsGolden) {
  EXPECT_EQ(instrument_digests("lu.tlp-coarse.n64"),
            "report e1659282d4058816/119024 kanata 9cd58393531d82e8/696181 "
            "trace 8ac9f65d940ba99f/26190 race a918d52c4b1460e5/157");
}

}  // namespace
}  // namespace smt
