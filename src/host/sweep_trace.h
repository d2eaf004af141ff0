// Host-side sweep tracing: serializes the JobPool's AttemptEvent stream
// as a Chrome trace-event JSON document (the format src/trace/
// chrome_trace.h writes and checks for the guest-side telemetry too,
// loadable in Perfetto or chrome://tracing) so a sweep's wall-clock
// schedule becomes visible:
//
//   * one track (tid) per pool worker, named "worker N";
//   * one complete ("X") span per job, named after the job and colored
//     by its JobStatus (ok = green, failed = red, watchdog timeout =
//     yellow), with the status in args;
//   * one "watchdog" instant event per watchdog fire, at the kill point.
//
// Times are host wall-clock: 1 trace microsecond = 1 real microsecond,
// relative to pool start. Being wall-clock data, the trace lives in its
// own artifact (`smt_sweep --trace`), never inside reports or the index —
// the byte-identity guarantee on those is untouched.
#pragma once

#include <string>
#include <vector>

#include "host/job_pool.h"

namespace smt::host {

/// Builds the trace document. `events` is the collected on_attempt
/// stream in any order (it is sorted internally — completion order is
/// scheduling-dependent); `job_names[e.job]` names each span.
std::string sweep_trace_json(std::vector<AttemptEvent> events,
                             const std::vector<std::string>& job_names,
                             int workers);

/// Writes sweep_trace_json() to `path`, creating missing parent
/// directories; logs and returns false on failure.
bool write_sweep_trace_file(std::vector<AttemptEvent> events,
                            const std::vector<std::string>& job_names,
                            int workers, const std::string& path);

}  // namespace smt::host
