// The Chrome trace-event format (object form, loadable in Perfetto and
// chrome://tracing): the one module that writes and checks it. Both
// writers — trace::chrome_trace_json (guest telemetry) and
// host::sweep_trace_json (the sweep's worker timeline) — emit through
// the calls below; check_reports and the tests accept a trace only
// through check_chrome_trace.
//
// A document is {"displayTimeUnit":"ms","otherData":{…},
// "traceEvents":[…]}; every event's head is name, ph (one character),
// pid (always 0), tid and ts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"

namespace smt::trace {

/// Document frame: begin_trace opens the document and its otherData
/// object (the caller writes otherData's members), begin_trace_events
/// closes otherData and opens the events array, end_trace closes both.
void begin_trace(JsonWriter& w);
void begin_trace_events(JsonWriter& w);
void end_trace(JsonWriter& w);

/// Opens one event object and writes its head (name, ph, pid 0, tid,
/// ts); the caller writes the remaining members and closes the object.
void begin_event(JsonWriter& w, std::string_view name, const char* ph,
                 int tid, uint64_t ts);

/// One metadata ("M") event at ts 0: `meta` is "process_name" or
/// "thread_name", and `value` the name it gives track `tid`.
void write_metadata(JsonWriter& w, const char* meta, int tid,
                    std::string_view value);

/// The first violation in `trace`, as a one-line finding (no file
/// prefix); std::nullopt when it is a well-formed trace: a nonempty
/// traceEvents array of objects with string name, one-character string
/// ph and numeric pid/tid/ts, every "X" event with a nonnegative dur.
std::optional<std::string> check_chrome_trace(const JsonValue& trace);

}  // namespace smt::trace
