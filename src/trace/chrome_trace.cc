#include "trace/chrome_trace.h"

namespace smt::trace {

namespace {
constexpr char kEvents[] = "traceEvents";
}  // namespace

void begin_trace(JsonWriter& w) {
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
}

void begin_trace_events(JsonWriter& w) {
  w.end_object();
  w.key(kEvents);
  w.begin_array();
}

void end_trace(JsonWriter& w) {
  w.end_array();
  w.end_object();
}

void begin_event(JsonWriter& w, std::string_view name, const char* ph,
                 int tid, uint64_t ts) {
  w.begin_object();
  w.kv("name", name);
  w.kv("ph", ph);
  w.kv("pid", 0);
  w.kv("tid", tid);
  w.kv("ts", ts);
}

void write_metadata(JsonWriter& w, const char* meta, int tid,
                    std::string_view value) {
  begin_event(w, meta, "M", tid, 0);
  w.key("args");
  w.begin_object();
  w.kv("name", value);
  w.end_object();
  w.end_object();
}

std::optional<std::string> check_chrome_trace(const JsonValue& trace) {
  const JsonValue* events = trace.find(kEvents);
  if (events == nullptr || !events->is_array() || events->array.empty()) {
    return "missing/empty traceEvents array";
  }
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    if (!e.is_object() || name == nullptr || !name->is_string() ||
        ph == nullptr || !ph->is_string() || ph->string.size() != 1 ||
        !has_number(e, "pid") || !has_number(e, "tid") ||
        !has_number(e, "ts")) {
      return "malformed trace event";
    }
    if (ph->string == "X" &&
        (!has_number(e, "dur") || e.find("dur")->number < 0)) {
      return "complete event without dur";
    }
  }
  return std::nullopt;
}

}  // namespace smt::trace
