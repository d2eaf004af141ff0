#include "host/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/json.h"
#include "common/table.h"
#include "host/sweep_index.h"

namespace smt::host {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  SMT_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  SMT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be strictly increasing");
}

void Histogram::observe(double x) {
  // First bucket whose upper edge admits x; everything beyond the last
  // bound lands in the implicit overflow bucket.
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[b];
  if (count_ == 0 || x < min_) min_ = x;
  if (count_ == 0 || x > max_) max_ = x;
  ++count_;
  sum_ += x;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

uint64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  SMT_CHECK_MSG(gauges_.count(name) == 0 && histograms_.count(name) == 0,
                name.c_str());
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  SMT_CHECK_MSG(counters_.count(name) == 0 && histograms_.count(name) == 0,
                name.c_str());
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  SMT_CHECK_MSG(counters_.count(name) == 0 && gauges_.count(name) == 0,
                name.c_str());
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    SMT_CHECK_MSG(slot->bounds() == bounds, name.c_str());
  }
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = {g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    // One lock acquisition for the whole histogram, so the copied counts,
    // count and sum are mutually consistent even under concurrent
    // observe() calls.
    const std::lock_guard<std::mutex> hlock(h->mu_);
    hs.counts = h->counts_;
    hs.count = h->count_;
    hs.sum = h->sum_;
    hs.min = h->count_ ? h->min_ : std::numeric_limits<double>::quiet_NaN();
    hs.max = h->count_ ? h->max_ : std::numeric_limits<double>::quiet_NaN();
    s.histograms[name] = std::move(hs);
  }
  return s;
}

void append_metrics_json(JsonWriter& w, const MetricsRegistry::Snapshot& s) {
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : s.counters) w.kv(name, v);
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : s.gauges) {
    w.key(name);
    w.begin_object();
    w.kv("value", g.value);
    w.kv("max", g.max);
    w.end_object();
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : s.histograms) {
    w.key(name);
    w.begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    if (h.count > 0) {
      w.kv("min", h.min);
      w.kv("max", h.max);
    }
    w.key("buckets");
    w.begin_array();
    for (size_t i = 0; i < h.counts.size(); ++i) {
      w.begin_object();
      if (i < h.bounds.size()) {
        w.kv("le", h.bounds[i]);
      } else {
        w.kv("le", "inf");
      }
      w.kv("count", h.counts[i]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

namespace {
constexpr char kMetricsSchema[] = "smt-sweep-metrics/1";
}  // namespace

std::string sweep_metrics_json(const MetricsRegistry& reg,
                               const SweepIndex& index,
                               const SweepReuse& reuse) {
  const MetricsRegistry::Snapshot s = reg.snapshot();
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kMetricsSchema);
  w.key("sweep");
  w.begin_object();
  w.kv("requested_workers", index.workers);
  w.kv("total", static_cast<int64_t>(index.jobs.size()));
  w.kv("failed", index.failed());
  w.kv("cache", reuse.cache);
  w.kv("cache_verify", reuse.cache_verify);
  w.end_object();
  append_metrics_json(w, s);
  const auto counter = [&s](const std::string& name) -> uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  const uint64_t wall_us = counter("pool.wall_us");
  const uint64_t workers = counter("pool.workers");
  w.key("workers");
  w.begin_array();
  for (uint64_t i = 0; i < workers; ++i) {
    const uint64_t busy =
        counter("pool.worker" + std::to_string(i) + ".busy_us");
    w.begin_object();
    w.kv("worker", i);
    w.kv("busy_us", busy);
    w.kv("busy_fraction", wall_us == 0 ? 0.0
                                       : static_cast<double>(busy) /
                                             static_cast<double>(wall_us));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::vector<std::string> check_sweep_metrics(const JsonValue& metrics,
                                             const SweepIndex& index) {
  const JsonValue* schema = metrics.find("schema");
  if (schema == nullptr || schema->string != kMetricsSchema) {
    return {"missing/unknown schema"};
  }

  // Index-side ground truth.
  const double index_total = index.jobs.size();
  const double index_failed = index.failed();
  double index_attempts = 0;
  double index_lint_failed = 0;
  double index_cached = 0;
  double index_verify_failed = 0;
  for (const IndexEntry& job : index.jobs) {
    if (job.outcome == "lint_failed") ++index_lint_failed;
    if (job.outcome == "cache_verify_failed") ++index_verify_failed;
    if (job.cached) ++index_cached;
    index_attempts += job.attempts;
  }
  const double index_started = index_total - index_lint_failed;

  const JsonValue* sweep = metrics.find("sweep");
  const JsonValue* counters = metrics.find("counters");
  const JsonValue* gauges = metrics.find("gauges");
  const JsonValue* histograms = metrics.find("histograms");
  const JsonValue* workers = metrics.find("workers");
  if (sweep == nullptr || !sweep->is_object() || counters == nullptr ||
      !counters->is_object() || gauges == nullptr || !gauges->is_object() ||
      histograms == nullptr || !histograms->is_object() ||
      workers == nullptr || !workers->is_array()) {
    return {"missing sweep/counters/gauges/histograms/workers"};
  }

  std::vector<std::string> findings;
  const auto expect = [&](const std::string& what, double got, double want) {
    if (got != want) {
      findings.push_back(what + " is " + fmt(got, 0) + ", expected " +
                         fmt(want, 0));
    }
  };
  const auto counter = [&](const std::string& name) {
    return number_or(*counters, name, -1.0);
  };

  expect("sweep.total", number_or(*sweep, "total", -1.0), index_total);
  expect("sweep.failed", number_or(*sweep, "failed", -1.0), index_failed);
  expect("pool.jobs_started", counter("pool.jobs_started"), index_started);
  expect("pool.jobs_completed", counter("pool.jobs_completed"),
         index_started);
  expect("pool.jobs_ok", counter("pool.jobs_ok"),
         index_total - index_failed);
  expect("pool.jobs_failed + pool.jobs_timeout",
         counter("pool.jobs_failed") + counter("pool.jobs_timeout"),
         index_failed - index_lint_failed);
  expect("pool.attempts", counter("pool.attempts"), index_attempts);
  expect("pool.attempts - pool.jobs_started",
         counter("pool.attempts") - counter("pool.jobs_started"), 0);
  expect("pool.watchdog_fires", counter("pool.watchdog_fires"),
         counter("pool.jobs_timeout"));

  // Result-cache counters. A sweep that ran without --cache must show
  // zero lookups; one that ran with it looks up every job it actually
  // started, exactly once, and every lookup resolves to a hit, a miss,
  // or a failed verification.
  const JsonValue* cache_flag = sweep->find("cache");
  const bool cache_enabled = cache_flag != nullptr &&
                             cache_flag->type == JsonValue::Type::kBool &&
                             cache_flag->boolean;
  expect("cache.lookups", counter("cache.lookups"),
         cache_enabled ? index_started : 0.0);
  expect("cache.hits + cache.misses + cache.verify_failed",
         counter("cache.hits") + counter("cache.misses") +
             counter("cache.verify_failed"),
         counter("cache.lookups"));
  expect("cache.hits", counter("cache.hits"), index_cached);
  expect("cache.verify_failed", counter("cache.verify_failed"),
         index_verify_failed);
  const auto at_most = [&](const char* what, const char* bound) {
    if (counter(what) > counter(bound)) {
      findings.push_back(std::string(what) + " " + fmt(counter(what), 0) +
                         " exceeds " + bound + " " + fmt(counter(bound), 0));
    }
  };
  at_most("cache.stores", "cache.misses");
  at_most("cache.verified", "cache.hits");

  const JsonValue* hist = histograms->find("pool.attempt_wall_ms");
  if (hist == nullptr || !hist->is_object()) {
    findings.push_back("missing pool.attempt_wall_ms histogram");
  } else {
    expect("attempt_wall_ms.count", number_or(*hist, "count", -1.0),
           index_attempts);
    const JsonValue* buckets = hist->find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      findings.push_back("histogram missing buckets");
    } else {
      double bucket_sum = 0;
      for (const JsonValue& b : buckets->array) {
        bucket_sum += number_or(b, "count", 0.0);
      }
      expect("attempt_wall_ms bucket sum", bucket_sum, index_attempts);
    }
  }

  const JsonValue* depth = gauges->find("pool.queue_depth");
  const JsonValue* busy = gauges->find("pool.workers_busy");
  if (depth == nullptr || busy == nullptr) {
    findings.push_back("missing queue_depth/workers_busy gauges");
  } else {
    expect("queue_depth.value", number_or(*depth, "value", -1.0), 0);
    expect("queue_depth.max", number_or(*depth, "max", -1.0),
           index_total - index_lint_failed);
    expect("workers_busy.value", number_or(*busy, "value", -1.0), 0);
    const double peak = number_or(*busy, "max", -1.0);
    const double min_peak = index_started > 0 ? 1.0 : 0.0;
    const double requested = number_or(*sweep, "requested_workers", 0.0);
    if (peak < min_peak || peak > requested) {
      findings.push_back("workers_busy.max " + fmt(peak, 0) + " outside [" +
                         fmt(min_peak, 0) + ", " + fmt(requested, 0) + "]");
    }
  }

  expect("workers[] size", workers->array.size(), counter("pool.workers"));
  const double wall_us = counter("pool.wall_us");
  for (const JsonValue& w : workers->array) {
    if (!has_number(w, "worker") || !has_number(w, "busy_us") ||
        !has_number(w, "busy_fraction")) {
      findings.push_back("malformed workers[] entry");
      continue;
    }
    const std::string id =
        std::to_string(static_cast<int>(w.find("worker")->number));
    const double busy_us = w.find("busy_us")->number;
    const std::string counter_name = "pool.worker" + id + ".busy_us";
    expect(counter_name, number_or(*counters, counter_name, -1.0), busy_us);
    // Both figures round independently from ms doubles, so allow one µs
    // of slack rather than demanding busy_us <= wall_us exactly.
    if (busy_us > wall_us + 1.0) {
      findings.push_back("worker" + id + " busy_us " + fmt(busy_us, 0) +
                         " exceeds wall_us " + fmt(wall_us, 0));
    }
  }
  return findings;
}

}  // namespace smt::host
