// Tests for the time-resolved telemetry subsystem: the windowed counter
// sampler, the cycle-stamped event recorder, and the two hard guarantees
// — tracing never perturbs a measurement, and window deltas are exact
// under event-skip fast-forward.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "kernels/matmul.h"
#include "perfmon/counters.h"
#include "perfmon/events.h"
#include "trace/recorder.h"
#include "trace/sampler.h"
#include "trace/telemetry.h"

namespace smt {
namespace {

using core::MachineConfig;
using cpu::GuestAccess;
using core::RunStats;
using kernels::MatMulParams;
using kernels::MatMulWorkload;
using kernels::MmMode;
using perfmon::Event;
using trace::CounterSampler;
using trace::TelemetryConfig;
using trace::TraceEvent;
using trace::TraceKind;
using trace::TraceRecorder;

constexpr CpuId kC0 = CpuId::kCpu0;
constexpr CpuId kC1 = CpuId::kCpu1;

/// Installs `cfg` as the process-global telemetry default for the scope
/// (Machine's constructor consults it) and restores "disabled" on exit.
struct ScopedGlobalTelemetry {
  explicit ScopedGlobalTelemetry(const TelemetryConfig& cfg) {
    trace::set_global_telemetry(cfg);
  }
  ~ScopedGlobalTelemetry() { trace::set_global_telemetry(TelemetryConfig{}); }
};

TelemetryConfig small_windows() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_window = 256;
  return cfg;
}

/// The paper's SPR matmul: worker + prefetcher with throttling barriers
/// (halt/IPI protocol when `halt_barriers`), the richest event source.
RunStats run_spr_matmul(bool traced, bool event_skip, bool halt_barriers) {
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  p.halt_barriers = halt_barriers;
  MatMulWorkload w(p);
  MachineConfig cfg;
  cfg.core.event_skip = event_skip;
  if (traced) {
    ScopedGlobalTelemetry g(small_windows());
    return core::run_workload(cfg, w);
  }
  return core::run_workload(cfg, w);
}

int count_kind(const std::vector<TraceEvent>& evs, TraceKind k) {
  int n = 0;
  for (const TraceEvent& e : evs) {
    if (e.kind == k) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// CounterSampler unit behavior
// ---------------------------------------------------------------------------

TEST(CounterSampler, BoundariesCutExactWindows) {
  perfmon::PerfCounters ctr;
  CounterSampler s(ctr, /*window=*/100);
  EXPECT_EQ(s.next_boundary(), 100u);

  ctr.add(kC0, Event::kInstrRetired, 7);
  s.on_boundary(100);
  ctr.add(kC0, Event::kInstrRetired, 5);
  ctr.add(kC1, Event::kL2ReadMisses, 2);
  s.on_boundary(200);

  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_EQ(s.windows()[0].begin, 0u);
  EXPECT_EQ(s.windows()[0].end, 100u);
  EXPECT_EQ(s.windows()[0].delta.get(kC0, Event::kInstrRetired), 7u);
  EXPECT_EQ(s.windows()[1].begin, 100u);
  EXPECT_EQ(s.windows()[1].end, 200u);
  EXPECT_EQ(s.windows()[1].delta.get(kC0, Event::kInstrRetired), 5u);
  EXPECT_EQ(s.windows()[1].delta.get(kC1, Event::kL2ReadMisses), 2u);
}

TEST(CounterSampler, FinalizeFlushesPartialTail) {
  perfmon::PerfCounters ctr;
  CounterSampler s(ctr, 100);
  s.on_boundary(100);
  ctr.add(kC0, Event::kUopsRetired, 3);
  s.finalize(150);
  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_EQ(s.windows()[1].begin, 100u);
  EXPECT_EQ(s.windows()[1].end, 150u);
  EXPECT_EQ(s.windows()[1].delta.get(kC0, Event::kUopsRetired), 3u);
  // Finalizing again at the same cycle adds nothing.
  s.finalize(150);
  EXPECT_EQ(s.windows().size(), 2u);
}

TEST(CounterSampler, FinalizeCatchesUpMissedBoundaries) {
  // A hand-driven machine may never call on_boundary; finalize still
  // produces the dense window sequence.
  perfmon::PerfCounters ctr;
  CounterSampler s(ctr, 100);
  ctr.add(kC1, Event::kCyclesActive, 450);
  s.finalize(450);
  ASSERT_EQ(s.windows().size(), 5u);
  EXPECT_EQ(s.windows()[4].begin, 400u);
  EXPECT_EQ(s.windows()[4].end, 450u);
  uint64_t sum = 0;
  for (const auto& w : s.windows()) sum += w.delta.get(kC1, Event::kCyclesActive);
  EXPECT_EQ(sum, 450u);
}

// ---------------------------------------------------------------------------
// TraceRecorder unit behavior
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RingIsBoundedAndOldestFirst) {
  TraceRecorder rec(/*capacity=*/4, /*l2_burst_gap=*/0);
  for (int i = 0; i < 10; ++i) {
    rec.on_ipi_send(kC0, static_cast<Cycle>(i));
  }
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Oldest surviving event first.
  for (size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].ts, 6u + i);
    EXPECT_EQ(evs[i].kind, TraceKind::kIpiSend);
  }
}

TEST(TraceRecorder, PairsLockAcquireAndRelease) {
  TraceRecorder rec(64, 0);
  const Addr lock = 0x1000;
  const int ann = rec.annotate_lock(lock, "l");

  // Contended attempt (reads 1): not held.
  rec.on_guest_access(kC1, 0, lock, GuestAccess::kXchg, /*value=*/1, 10);
  rec.on_guest_access(kC1, 0, lock, GuestAccess::kXchg, 0, 20);  // acquire
  // Loads and unwatched words never touch the spans.
  rec.on_guest_access(kC0, 0, lock, GuestAccess::kLoad, 0, 30);
  rec.on_guest_access(kC0, 0, lock + 8, GuestAccess::kXchg, 0, 35);
  rec.on_guest_access(kC1, 0, lock, GuestAccess::kStore, 0, 50);  // release
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kLockHeld), 1);
  for (const TraceEvent& e : evs) {
    if (e.kind != TraceKind::kLockHeld) continue;
    EXPECT_EQ(e.ts, 20u);
    EXPECT_EQ(e.ts2, 50u);
    EXPECT_EQ(e.cpu, 1);
    EXPECT_EQ(e.ann, ann);
  }
}

TEST(TraceRecorder, FinalizeClosesHeldLock) {
  TraceRecorder rec(64, 0);
  const Addr lock = 0x2000;
  rec.annotate_lock(lock, "l");
  rec.on_guest_access(kC0, 0, lock, GuestAccess::kXchg, 0, 5);
  rec.finalize(100);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kLockHeld), 1);
  EXPECT_EQ(evs[0].ts, 5u);
  EXPECT_EQ(evs[0].ts2, 100u);
}

TEST(TraceRecorder, PairsBarrierEpisodes) {
  TraceRecorder rec(64, 0);
  const Addr f0 = 0x100, f1 = 0x200;
  const int ann = rec.annotate_barrier(f0, f1, "b", /*spr=*/true);

  // Episode 1: cpu0 arrives first (stores episode counter 1), cpu1 later.
  rec.on_guest_access(kC0, 0, f0, GuestAccess::kStore, 1, 10);
  rec.on_guest_access(kC1, 0, f1, GuestAccess::kStore, 1, 40);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kBarrierEpisode), 1);
  ASSERT_EQ(count_kind(evs, TraceKind::kBarrierWait), 1);
  ASSERT_EQ(count_kind(evs, TraceKind::kSprHandoff), 1);
  for (const TraceEvent& e : evs) {
    if (e.kind == TraceKind::kBarrierEpisode) {
      EXPECT_EQ(e.ts, 10u);
      EXPECT_EQ(e.ts2, 40u);
      EXPECT_EQ(e.ann, ann);
      EXPECT_EQ(e.arg, 1u);
    } else if (e.kind == TraceKind::kBarrierWait) {
      // The early arriver (cpu0) waited 10 -> 40 on its own track.
      EXPECT_EQ(e.cpu, 0);
      EXPECT_EQ(e.ts, 10u);
      EXPECT_EQ(e.ts2, 40u);
    }
  }
}

TEST(TraceRecorder, GroupsL2MissBursts) {
  TraceRecorder rec(64, /*l2_burst_gap=*/50);
  rec.on_demand_miss(kC0, 0, /*l2_miss=*/true, 100);
  rec.on_demand_miss(kC0, 0, true, 120);
  rec.on_demand_miss(kC0, 0, /*l2_miss=*/false, 130);  // L1-only: ignored
  rec.on_demand_miss(kC0, 0, true, 140);
  rec.on_demand_miss(kC0, 0, true, 500);  // beyond the gap: new burst
  rec.finalize(600);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kL2MissBurst), 2);
  EXPECT_EQ(evs[0].ts, 100u);
  EXPECT_EQ(evs[0].arg, 3u);
  EXPECT_EQ(evs[1].ts, 500u);
  EXPECT_EQ(evs[1].arg, 1u);
}

TEST(TraceRecorder, PairsHaltSpans) {
  TraceRecorder rec(64, 0);
  rec.on_halt_enter(kC1, 30);
  rec.on_halt_exit(kC1, 90);
  rec.on_halt_enter(kC1, 200);
  rec.finalize(250);  // still halted at the end of the run
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kHaltSpan), 2);
  EXPECT_EQ(evs[0].ts, 30u);
  EXPECT_EQ(evs[0].ts2, 90u);
  EXPECT_EQ(evs[1].ts, 200u);
  EXPECT_EQ(evs[1].ts2, 250u);
}

// ---------------------------------------------------------------------------
// Hard guarantee 1: tracing never perturbs a measurement
// ---------------------------------------------------------------------------

TEST(Telemetry, FinalizeIsIdempotentAcrossCallSites) {
  // finalize() is reached from three sites (core::run_workload, bench
  // stats_from, report_from_machine) that may all touch one run's
  // telemetry. That used to work only by accident — the instruments
  // happened to tolerate re-finalizing at the *same* end cycle; the
  // explicit guard must make later calls no-ops even with a different
  // end, or the series would grow a bogus tail window / re-close spans.
  perfmon::PerfCounters ctr;
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_window = 100;
  trace::Telemetry t(cfg, ctr);
  ctr.add(kC0, Event::kInstrRetired, 7);
  t.recorder().on_halt_enter(kC1, 50);  // open span for finalize to close

  EXPECT_FALSE(t.finalized());
  t.finalize(150);
  EXPECT_TRUE(t.finalized());
  const size_t windows = t.sampler().windows().size();
  const size_t events = t.recorder().events().size();
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(t.sampler().windows().back().end, 150u);

  t.finalize(150);
  t.finalize(400);  // later end: still a no-op
  EXPECT_EQ(t.sampler().windows().size(), windows);
  EXPECT_EQ(t.recorder().events().size(), events);
  EXPECT_EQ(t.sampler().windows().back().end, 150u);
}

TEST(Telemetry, TracingDoesNotPerturbAnyCounter) {
  for (const bool event_skip : {false, true}) {
    const RunStats off = run_spr_matmul(false, event_skip, true);
    const RunStats on = run_spr_matmul(true, event_skip, true);
    ASSERT_TRUE(off.verified);
    ASSERT_TRUE(on.verified);
    ASSERT_NE(on.telemetry, nullptr);
    EXPECT_EQ(off.telemetry, nullptr);
    EXPECT_EQ(on.cycles, off.cycles);
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        EXPECT_EQ(on.events.get(cpu, ev), off.events.get(cpu, ev))
            << "cpu" << c << " " << perfmon::name(ev)
            << " event_skip=" << event_skip;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hard guarantee 2: windows are exact under event-skip fast-forward
// ---------------------------------------------------------------------------

TEST(Telemetry, WindowsBitIdenticalAcrossEventSkip) {
  const RunStats skip = run_spr_matmul(true, true, true);
  const RunStats step = run_spr_matmul(true, false, true);
  ASSERT_NE(skip.telemetry, nullptr);
  ASSERT_NE(step.telemetry, nullptr);
  EXPECT_EQ(skip.cycles, step.cycles);

  const auto& ws = skip.telemetry->sampler().windows();
  const auto& wt = step.telemetry->sampler().windows();
  ASSERT_EQ(ws.size(), wt.size());
  ASSERT_GT(ws.size(), 1u);  // the run must actually span several windows
  for (size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].begin, wt[i].begin);
    EXPECT_EQ(ws[i].end, wt[i].end);
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        EXPECT_EQ(ws[i].delta.get(cpu, ev), wt[i].delta.get(cpu, ev))
            << "window " << i << " cpu" << c << " " << perfmon::name(ev);
      }
    }
  }
}

TEST(Telemetry, WindowDeltasSumToRunTotals) {
  for (const bool event_skip : {false, true}) {
    const RunStats stats = run_spr_matmul(true, event_skip, false);
    ASSERT_NE(stats.telemetry, nullptr);
    const auto& windows = stats.telemetry->sampler().windows();
    ASSERT_FALSE(windows.empty());
    // Windows tile [0, cycles) without gaps.
    EXPECT_EQ(windows.front().begin, 0u);
    EXPECT_EQ(windows.back().end, stats.cycles);
    for (size_t i = 1; i < windows.size(); ++i) {
      EXPECT_EQ(windows[i].begin, windows[i - 1].end);
    }
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        uint64_t sum = 0;
        for (const auto& w : windows) sum += w.delta.get(cpu, ev);
        EXPECT_EQ(sum, stats.events.get(cpu, ev))
            << "cpu" << c << " " << perfmon::name(ev)
            << " event_skip=" << event_skip;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end artifacts
// ---------------------------------------------------------------------------

TEST(Telemetry, SprRunRecordsTheExpectedEventKinds) {
  const RunStats stats = run_spr_matmul(true, true, true);
  ASSERT_NE(stats.telemetry, nullptr);
  const auto evs = stats.telemetry->recorder().events();
  EXPECT_EQ(stats.telemetry->recorder().dropped(), 0u);
  EXPECT_GT(count_kind(evs, TraceKind::kHaltSpan), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kIpiSend), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kIpiWake), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kBarrierEpisode), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kSprHandoff), 0);
  // Spans are well-formed and every event is within the run.
  for (const TraceEvent& e : evs) {
    EXPECT_LE(e.ts, e.ts2);
    EXPECT_LE(e.ts2, stats.cycles);
  }
}

TEST(Telemetry, ChromeTraceJsonIsWellFormed) {
  const RunStats stats = run_spr_matmul(true, true, true);
  ASSERT_NE(stats.telemetry, nullptr);
  const auto doc = parse_json(trace::chrome_trace_json(*stats.telemetry));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  bool saw_meta = false, saw_halt = false, saw_episode = false;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(name, nullptr);
    for (const char* key : {"pid", "tid", "ts"}) {
      if (ph->string == "M") break;  // metadata carries no ts
      const JsonValue* v = e.find(key);
      ASSERT_NE(v, nullptr) << key;
      ASSERT_TRUE(v->is_number()) << key;
    }
    if (ph->string == "X") {
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
    if (ph->string == "M") saw_meta = true;
    if (name->string == "halt") saw_halt = true;
    // Annotated events carry the annotation's name: "barrier_episode <bar>".
    if (name->string.rfind("barrier_episode", 0) == 0) saw_episode = true;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_halt);
  EXPECT_TRUE(saw_episode);
}

TEST(Telemetry, TracedReportUsesSchema2WithTimeseries) {
  const RunStats traced = run_spr_matmul(true, true, false);
  const auto doc =
      parse_json(core::RunReport::from(traced).to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->string, "smt-run-report/2");
  const JsonValue* ts = doc->find("timeseries");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->find("window_cycles")->number, 256.0);
  EXPECT_FALSE(ts->find("windows")->array.empty());

  // Untraced runs keep the /1 schema with no timeseries section.
  const RunStats plain = run_spr_matmul(false, true, false);
  const auto doc1 = parse_json(core::RunReport::from(plain).to_json());
  ASSERT_TRUE(doc1.has_value());
  EXPECT_EQ(doc1->find("schema")->string, "smt-run-report/1");
  EXPECT_EQ(doc1->find("timeseries"), nullptr);
}

}  // namespace
}  // namespace smt
