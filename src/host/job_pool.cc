#include "host/job_pool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "common/check.h"
#include "host/metrics.h"

namespace smt::host {

const char* name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk:      return "ok";
    case JobStatus::kFailed:  return "failed";
    case JobStatus::kTimeout: return "timeout";
  }
  return "?";
}

std::vector<size_t> longest_first(
    const std::vector<std::optional<double>>& estimates) {
  std::vector<size_t> order(estimates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const std::optional<double>& ea = estimates[a];
    const std::optional<double>& eb = estimates[b];
    if (ea.has_value() != eb.has_value()) return ea.has_value();
    return ea.has_value() && *ea > *eb;
  });
  return order;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The pool's metric set, registered once up front so worker threads only
/// ever touch the (thread-safe) metric values. All names live under
/// "pool." — see DESIGN.md §12 for the full table.
struct PoolInstruments {
  explicit PoolInstruments(MetricsRegistry& reg, int workers)
      : jobs_started(reg.counter("pool.jobs_started")),
        jobs_completed(reg.counter("pool.jobs_completed")),
        jobs_ok(reg.counter("pool.jobs_ok")),
        jobs_failed(reg.counter("pool.jobs_failed")),
        jobs_timeout(reg.counter("pool.jobs_timeout")),
        attempts(reg.counter("pool.attempts")),
        watchdog_fires(reg.counter("pool.watchdog_fires")),
        queue_depth(reg.gauge("pool.queue_depth")),
        workers_busy(reg.gauge("pool.workers_busy")),
        // Wall-time buckets from sub-ms probes up to multi-minute jobs.
        attempt_wall_ms(reg.histogram(
            "pool.attempt_wall_ms",
            {1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000, 300000})) {
    for (int i = 0; i < workers; ++i) {
      worker_busy_us.push_back(
          &reg.counter("pool.worker" + std::to_string(i) + ".busy_us"));
    }
  }

  Counter& jobs_started;
  Counter& jobs_completed;
  Counter& jobs_ok;
  Counter& jobs_failed;
  Counter& jobs_timeout;
  Counter& attempts;
  Counter& watchdog_fires;
  Gauge& queue_depth;
  Gauge& workers_busy;
  Histogram& attempt_wall_ms;
  std::vector<Counter*> worker_busy_us;
};

JobResult run_one(const JobPoolConfig& cfg, const Job& job, size_t job_index,
                  int worker, Clock::time_point pool_start,
                  PoolInstruments* ins) {
  SMT_CHECK_MSG(static_cast<bool>(job.fn), job.name.c_str());
  if (ins != nullptr) ins->jobs_started.inc();
  CancelToken token;
  if (cfg.job_timeout.count() > 0) {
    token.arm_deadline(Clock::now() + cfg.job_timeout);
  }
  JobResult r;
  const double begin_ms = ms_since(pool_start);
  r.status = job.fn(token, &r.message);
  const double end_ms = ms_since(pool_start);
  r.wall_ms = end_ms - begin_ms;
  if (ins != nullptr) {
    ins->attempts.inc();
    ins->attempt_wall_ms.observe(r.wall_ms);
    ins->jobs_completed.inc();
    switch (r.status) {
      case JobStatus::kOk:      ins->jobs_ok.inc(); break;
      case JobStatus::kFailed:  ins->jobs_failed.inc(); break;
      case JobStatus::kTimeout:
        ins->watchdog_fires.inc();
        ins->jobs_timeout.inc();
        break;
    }
  }
  if (cfg.on_attempt) {
    AttemptEvent e;
    e.job = job_index;
    e.worker = worker;
    e.status = r.status;
    e.begin_ms = begin_ms;
    e.end_ms = end_ms;
    cfg.on_attempt(e);
  }
  return r;
}

}  // namespace

std::vector<JobResult> run_jobs(const JobPoolConfig& cfg,
                                const std::vector<Job>& jobs) {
  std::vector<JobResult> results(jobs.size());
  if (jobs.empty()) return results;

  int workers = cfg.workers < 1 ? 1 : cfg.workers;
  if (static_cast<size_t>(workers) > jobs.size()) {
    workers = static_cast<int>(jobs.size());
  }

  std::unique_ptr<PoolInstruments> ins;
  if (cfg.metrics != nullptr) {
    ins = std::make_unique<PoolInstruments>(*cfg.metrics, workers);
    ins->queue_depth.set(static_cast<int64_t>(jobs.size()));
  }
  const Clock::time_point pool_start = Clock::now();

  // Work stealing off a shared atomic cursor; each worker writes only the
  // result slots of the jobs it claimed, so no further synchronization is
  // needed on `results`.
  std::atomic<size_t> next{0};
  auto worker = [&](int worker_id) {
    const Clock::time_point worker_start = Clock::now();
    double busy_ms = 0.0;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) break;
      if (ins != nullptr) {
        ins->queue_depth.add(-1);
        ins->workers_busy.add(1);
      }
      const double t0 = ms_since(worker_start);
      results[i] = run_one(cfg, jobs[i], i, worker_id, pool_start, ins.get());
      busy_ms += ms_since(worker_start) - t0;
      if (ins != nullptr) ins->workers_busy.add(-1);
    }
    if (ins != nullptr) {
      // Round to the nearest µs: truncation undercounts every worker's
      // sub-µs remainder, letting summed busy time drift below the
      // attempt wall-time sums check_reports cross-checks against.
      ins->worker_busy_us[worker_id]->inc(
          static_cast<uint64_t>(std::llround(busy_ms * 1000.0)));
    }
  };

  if (workers == 1) {
    worker(0);  // serial mode stays on the caller's thread (no pool at all)
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int i = 0; i < workers; ++i) threads.emplace_back(worker, i);
    for (std::thread& t : threads) t.join();
  }
  if (ins != nullptr) {
    cfg.metrics->counter("pool.wall_us")
        .inc(static_cast<uint64_t>(std::llround(ms_since(pool_start) * 1000.0)));
    cfg.metrics->counter("pool.workers").inc(static_cast<uint64_t>(workers));
  }
  return results;
}

}  // namespace smt::host
