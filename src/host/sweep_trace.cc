#include "host/sweep_trace.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/io.h"
#include "common/json.h"
#include "trace/chrome_trace.h"

namespace smt::host {

namespace {

/// Chrome trace reserved color names; Perfetto maps them to its palette.
const char* status_cname(JobStatus s) {
  switch (s) {
    case JobStatus::kOk:      return "good";
    case JobStatus::kFailed:  return "terrible";
    case JobStatus::kTimeout: return "bad";
  }
  return "terrible";
}

uint64_t to_us(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1000.0);
}

}  // namespace

std::string sweep_trace_json(std::vector<AttemptEvent> events,
                             const std::vector<std::string>& job_names,
                             int workers) {
  // Completion order depends on scheduling; sort into a stable timeline
  // so a given event set always serializes the same way.
  std::sort(events.begin(), events.end(),
            [](const AttemptEvent& a, const AttemptEvent& b) {
              if (a.begin_ms != b.begin_ms) return a.begin_ms < b.begin_ms;
              return a.worker < b.worker;
            });

  JsonWriter w;
  trace::begin_trace(w);
  w.kv("clock", "host wall-clock since pool start (us)");
  w.kv("workers", workers);
  trace::begin_trace_events(w);
  // Process + one named track per worker.
  trace::write_metadata(w, "process_name", 0, "smt_sweep");
  for (int i = 0; i < workers; ++i) {
    trace::write_metadata(w, "thread_name", i, "worker " + std::to_string(i));
  }

  for (const AttemptEvent& e : events) {
    SMT_CHECK(e.job < job_names.size());
    // The job's span.
    trace::begin_event(w, job_names[e.job], "X", e.worker, to_us(e.begin_ms));
    w.kv("dur", to_us(e.end_ms) - to_us(e.begin_ms));
    w.kv("cname", status_cname(e.status));
    w.key("args");
    w.begin_object();
    w.kv("status", name(e.status));
    w.end_object();
    w.end_object();
    // A watchdog fire as an instant at the kill point.
    if (e.status == JobStatus::kTimeout) {
      trace::begin_event(w, "watchdog", "i", e.worker, to_us(e.end_ms));
      w.kv("s", "t");
      w.key("args");
      w.begin_object();
      w.kv("job", job_names[e.job]);
      w.end_object();
      w.end_object();
    }
  }
  trace::end_trace(w);
  return w.str();
}

bool write_sweep_trace_file(std::vector<AttemptEvent> events,
                            const std::vector<std::string>& job_names,
                            int workers, const std::string& path) {
  return write_text_file(
      path, sweep_trace_json(std::move(events), job_names, workers));
}

}  // namespace smt::host
