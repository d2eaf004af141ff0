#include "trace/telemetry.h"

#include <string>

#include "common/io.h"
#include "common/json.h"
#include "trace/chrome_trace.h"

namespace smt::trace {

namespace {

TelemetryConfig g_default;  // disabled until a driver opts in

/// Synthetic-track tid for annotation `ann` (cpu tracks are 0/1).
int ann_tid(int ann) { return 100 + ann; }

void write_counter_samples(JsonWriter& w, const CounterSampler& s) {
  // The paper's three headline counters (Figures 3-5), one Perfetto
  // counter track per logical CPU, one sample per window.
  static constexpr perfmon::Event kHeadline[] = {
      perfmon::Event::kL2ReadMisses,
      perfmon::Event::kResourceStallCycles,
      perfmon::Event::kUopsRetired,
  };
  for (const perfmon::Event e : kHeadline) {
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      const std::string track =
          std::string("cpu") + std::to_string(c) + " " + perfmon::name(e);
      for (const CounterWindow& win : s.windows()) {
        begin_event(w, track, "C", 0, win.begin);
        w.key("args");
        w.begin_object();
        w.kv("value", win.delta.get(static_cast<CpuId>(c), e));
        w.end_object();
        w.end_object();
      }
    }
  }
}

void write_event(JsonWriter& w, const TraceEvent& e,
                 const std::vector<Annotation>& anns) {
  const bool span = e.ts2 > e.ts;
  std::string label = name(e.kind);
  if (e.ann >= 0) label += " " + anns[e.ann].name;

  // Core events land on their CPU's track; annotation-scoped events with
  // no CPU (episode spans, handoffs) on the annotation's own track.
  const int tid = e.cpu >= 0 ? e.cpu : ann_tid(e.ann);
  begin_event(w, label, span ? "X" : "i", tid, e.ts);
  if (span) {
    w.kv("dur", e.ts2 - e.ts);
  } else {
    w.kv("s", "t");
  }
  w.key("args");
  w.begin_object();
  switch (e.kind) {
    case TraceKind::kBarrierEpisode:
    case TraceKind::kBarrierWait:
    case TraceKind::kSprHandoff:
      w.kv("episode", e.arg);
      break;
    case TraceKind::kL2MissBurst:
      w.kv("misses", e.arg);
      break;
    default:
      break;
  }
  w.end_object();
  w.end_object();
}

}  // namespace

const TelemetryConfig& global_telemetry() { return g_default; }
void set_global_telemetry(const TelemetryConfig& cfg) { g_default = cfg; }

Telemetry::Telemetry(const TelemetryConfig& cfg,
                     const perfmon::PerfCounters& ctr, Cycle start_cycle)
    : cfg_(cfg),
      sampler_(ctr, cfg.sample_window, start_cycle),
      recorder_(cfg.ring_capacity, cfg.l2_burst_gap) {}

void Telemetry::finalize(Cycle end) {
  // Guarded, not accidentally idempotent: the underlying instruments
  // tolerate a repeat call with the same `end`, but a later call with a
  // different `end` would append spurious windows/spans.
  if (finalized_) return;
  finalized_ = true;
  sampler_.finalize(end);
  recorder_.finalize(end);
}

std::string chrome_trace_json(const Telemetry& t) {
  JsonWriter w;
  begin_trace(w);
  w.kv("clock", "simulated cycles (1 cycle = 1us trace time)");
  w.kv("dropped_events", t.recorder().dropped());
  w.kv("sample_window_cycles", t.sampler().window_cycles());
  begin_trace_events(w);
  write_metadata(w, "process_name", 0, "smt-sim");
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    write_metadata(w, "thread_name", c, "cpu" + std::to_string(c));
  }
  const std::vector<Annotation>& anns = t.recorder().annotations();
  for (size_t i = 0; i < anns.size(); ++i) {
    const char* kind =
        anns[i].kind == Annotation::Kind::kBarrier ? "barrier " : "lock ";
    write_metadata(w, "thread_name", ann_tid(static_cast<int>(i)),
                   kind + anns[i].name);
  }
  for (const TraceEvent& e : t.recorder().events()) {
    write_event(w, e, anns);
  }
  write_counter_samples(w, t.sampler());
  end_trace(w);
  return w.str();
}

bool write_chrome_trace_file(const Telemetry& t, const std::string& path) {
  return write_text_file(path, chrome_trace_json(t));
}

}  // namespace smt::trace
