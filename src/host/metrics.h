// Host-side metrics registry: counters, gauges and fixed-bucket
// histograms instrumenting the sweep orchestrator (JobPool claims,
// watchdog fires, queue depth, per-attempt wall times, per-worker busy
// time). This is *host* observability — everything in here measures
// wall-clock behaviour of the orchestration layer and is therefore kept
// strictly out of the simulation artifacts: `smt_sweep --metrics` writes
// a separate `smt-sweep-metrics/1` document, never a report field, which
// preserves the sweep's parallel-equals-serial byte-identity guarantee.
// That document's writer (sweep_metrics_json) and its validator
// (check_sweep_metrics, the cross-check check_reports --metrics --index
// runs) live at the end of this header.
//
// Concurrency contract: value updates (Counter::inc, Gauge::set/add,
// Histogram::observe) are safe from any number of threads, as are reads
// and snapshot(). Metric *registration* (counter()/gauge()/histogram())
// is also thread-safe and returns references that stay valid for the
// registry's lifetime — workers may look up lazily, though the pool
// registers everything up front.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smt {
class JsonWriter;
struct JsonValue;
}

namespace smt::host {

/// Monotonic event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level (e.g. queue depth) with a high-watermark.
class Gauge {
 public:
  void set(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(int64_t delta) {
    raise_max(v_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void raise_max(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket histogram over doubles: `bounds` are the inclusive upper
/// edges of the finite buckets (strictly increasing); one implicit
/// overflow bucket catches everything beyond the last bound. Tracks
/// count/sum/min/max alongside the per-bucket counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const;
  double sum() const;
  double min() const;  // NaN when empty: no sample, no extremum
  double max() const;

 private:
  friend class MetricsRegistry;

  const std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<uint64_t> counts_;  // bounds_.size() + 1
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics, one instance per sweep invocation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; a name is bound to one metric kind for the
  /// registry's lifetime (SMT_CHECK on a kind or bucket-layout clash).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  struct GaugeSnapshot {
    int64_t value = 0;
    int64_t max = 0;
  };
  struct HistogramSnapshot {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  // bounds.size() + 1, last = overflow
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // NaN when empty
    double max = 0.0;
  };
  /// Point-in-time copy of every registered metric. Values written
  /// before the snapshot call (happens-before) are always included;
  /// each individual histogram is internally consistent (its counts sum
  /// to its count).
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, GaugeSnapshot> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;  // guards the maps; values synchronize themselves
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Appends the three metric sections ("counters", "gauges",
/// "histograms") to an open JSON object. Histogram min/max are omitted
/// when empty (the JSON subset has no NaN).
void append_metrics_json(JsonWriter& w, const MetricsRegistry::Snapshot& s);

struct SweepIndex;

/// How a sweep reused results: the flags of the metrics document's
/// "sweep" section beside the index-derived workers/total/failed.
struct SweepReuse {
  bool cache = false;        // --cache was given
  int64_t cache_verify = 0;  // --cache-verify sample size; 0 = off
};

/// The `smt-sweep-metrics/1` document of a sweep (`smt_sweep --metrics`):
/// "schema"; "sweep" {requested_workers, total, failed} from `index`
/// plus `reuse`; the snapshot of `reg` (append_metrics_json); and
/// "workers": one {worker, busy_us, busy_fraction} entry per pool worker,
/// derived from the pool counters so readers need no arithmetic of their
/// own.
std::string sweep_metrics_json(const MetricsRegistry& reg,
                               const SweepIndex& index,
                               const SweepReuse& reuse);

/// Cross-checks a metrics document against the sweep index it was written
/// beside; returns every finding as a one-line message without a file
/// prefix, empty when consistent. A wrong schema or a missing section is
/// the one finding. Otherwise the pool counters, which are redundant with
/// the index by construction, are checked against it (lint_failed = jobs
/// the --lint gate withheld from the pool, always with attempts == 0;
/// started = total - lint_failed; every other job starts):
///
///   jobs_started == jobs_completed == started
///   jobs_ok == total - failed;  jobs_failed + jobs_timeout ==
///                                  failed - lint_failed
///   attempts == sum(index jobs[].attempts) == jobs_started (every job
///     runs exactly once)
///   watchdog_fires == jobs_timeout
///   attempt_wall_ms histogram: count == attempts, bucket counts sum to it
///   queue_depth gauge drained to 0 from a high watermark of
///     total - lint_failed (lint-failed jobs are never enqueued);
///     workers_busy drained to 0, peak <= requested
///   one workers[] entry per pool worker, busy_us consistent with the
///   per-worker counters and <= wall_us + 1µs rounding slack
///
///   cache.* counters vs the index's "cached"/"outcome" fields:
///     lookups == hits + misses + verify_failed
///     lookups == started when the sweep ran with --cache, else 0
///     hits == #jobs with "cached":true
///     verify_failed == #jobs with outcome "cache_verify_failed"
///     stores <= misses; verified <= hits
std::vector<std::string> check_sweep_metrics(const JsonValue& metrics,
                                             const SweepIndex& index);

}  // namespace smt::host
