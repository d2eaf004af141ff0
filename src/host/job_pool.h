// Host-parallel job pool: shards independent simulation jobs across a
// fixed set of host worker threads — the sweep orchestrator's engine.
//
// Design constraints, in order:
//   * Crash isolation by construction: jobs must not abort the process.
//     Pool jobs therefore run simulations through the non-aborting
//     core::try_run_workload path and report failures as data.
//   * Determinism: a job's *result artifacts* depend only on the job
//     definition (every experiment fixes its seeds), never on worker
//     count or scheduling order — which is what makes parallel sweep
//     reports byte-identical to serial ones.
//   * Cooperative wall-clock watchdog: each job gets a CancelToken armed
//     with a deadline; the simulator's cancel hook
//     (cpu::Core::set_cancel_check) polls it and winds the run down
//     cleanly. Every job runs exactly once: a watchdog-killed job ends as
//     kTimeout, and re-running the sweep with the same --cache is the one
//     way to finish it (a timeout is never cached, so only the timed-out
//     jobs simulate again). A job that ignores its token simply runs to
//     its cycle budget — the watchdog cannot preempt, only request.
//   * Claim order is the jobs vector's order: workers take the next
//     unclaimed job off one atomic cursor. A caller that knows how long
//     its jobs run hands them over longest first (longest_first), so a
//     long job does not start last and run alone at the end; results
//     still come back in job order, and no artifact depends on the order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace smt::host {

/// Cooperative cancellation handle handed to each job: expires
/// once its armed wall-clock deadline has passed (never, unarmed).
class CancelToken {
 public:
  CancelToken() = default;

  void arm_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  bool expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

/// How a job ended.
enum class JobStatus : uint8_t {
  kOk,
  kFailed,   // structured failure (deadlock, budget, verify, ...)
  kTimeout,  // the watchdog expired the job's token
};
const char* name(JobStatus s);

struct JobResult {
  JobStatus status = JobStatus::kOk;
  std::string message;   // failure detail; empty when ok
  double wall_ms = 0.0;  // host wall-clock of the job's one run
};

struct Job {
  std::string name;
  /// The job. Must poll `token` (wire it into the simulator's cancel
  /// check) and return kTimeout when it wound down because the token
  /// expired. On kFailed/kTimeout, describe the failure in *message.
  std::function<JobStatus(const CancelToken& token, std::string* message)>
      fn;
};

/// One finished job attempt, as seen by the pool's observability hooks.
/// Every job makes exactly one attempt, so its event carries the job's
/// final status. Timestamps are host wall-clock milliseconds relative to
/// run_jobs() entry, so a sweep trace's spans all share one epoch.
struct AttemptEvent {
  size_t job = 0;    ///< index into the run_jobs() jobs vector
  int worker = 0;    ///< worker thread that ran the attempt [0, workers)
  JobStatus status = JobStatus::kOk;
  double begin_ms = 0.0;
  double end_ms = 0.0;
};

class MetricsRegistry;

struct JobPoolConfig {
  /// Fixed number of worker threads (clamped to [1, #jobs]).
  int workers = 1;
  /// Per-job wall-clock watchdog; zero disables it.
  std::chrono::milliseconds job_timeout{0};
  /// Optional instrumentation, updated live while the pool runs (see
  /// host/metrics.h for the metric names the pool registers). Purely
  /// observational: the pool's scheduling and the jobs' artifacts are
  /// identical with or without it.
  MetricsRegistry* metrics = nullptr;
  /// Optional per-attempt hook (sweep trace, progress line). Invoked
  /// from worker threads, possibly concurrently — the callee
  /// synchronizes. Never invoked after run_jobs() returns.
  std::function<void(const AttemptEvent&)> on_attempt;
};

/// Runs every job to completion on the worker pool and returns the
/// results in job order (independent of scheduling). Blocks until all
/// jobs finished; never throws away completed work because another job
/// failed.
std::vector<JobResult> run_jobs(const JobPoolConfig& cfg,
                                const std::vector<Job>& jobs);

/// Longest-processing-time-first claim order (Graham 1969): the indices
/// of `estimates`, largest estimate first. Jobs without an estimate come
/// after every estimated one; ties and the unestimated jobs keep their
/// input order, so with no estimates at all the order is the identity.
std::vector<size_t> longest_first(
    const std::vector<std::optional<double>>& estimates);

}  // namespace smt::host
