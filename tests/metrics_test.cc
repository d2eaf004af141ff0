// Tests for the host metrics registry: bucket-boundary placement,
// snapshot-vs-live consistency, JSON emission, multi-threaded update
// safety (what the CI tsan build of this binary exercises), and the
// sweep-metrics document's cross-check against its sweep index.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "host/job_pool.h"
#include "host/metrics.h"
#include "host/sweep_index.h"

namespace smt::host {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWatermark) {
  Gauge g;
  g.set(5);
  g.add(-3);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 5);
  g.add(10);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.max(), 12);
  g.set(0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 12) << "watermark must survive the drop";
}

TEST(Histogram, BoundsAreInclusiveUpperEdges) {
  Histogram h({1.0, 10.0, 100.0});
  // One observation per interesting position: at each edge (inclusive),
  // just above each edge, and beyond the last bound (overflow).
  h.observe(0.5);    // bucket 0 (le 1)
  h.observe(1.0);    // bucket 0 — edge belongs to its bucket
  h.observe(1.001);  // bucket 1 (le 10)
  h.observe(10.0);   // bucket 1
  h.observe(100.0);  // bucket 2 (le 100)
  h.observe(100.5);  // bucket 3 (overflow)
  EXPECT_EQ(h.bucket_counts(), (std::vector<uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 100.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.5);
}

TEST(Histogram, EmptyHistogramHasNaNExtremaAndZeroBuckets) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_EQ(h.bucket_counts(), (std::vector<uint64_t>{0, 0, 0}));
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, KindClashesDie) {
  MetricsRegistry reg;
  reg.counter("c");
  reg.histogram("h", {1.0});
  EXPECT_DEATH(reg.gauge("c"), "c");
  EXPECT_DEATH(reg.counter("h"), "h");
  // Same name, different bucket layout: one histogram cannot be two
  // shapes at once.
  EXPECT_DEATH(reg.histogram("h", {1.0, 2.0}), "h");
}

TEST(MetricsRegistry, SnapshotMatchesLiveValues) {
  MetricsRegistry reg;
  reg.counter("jobs").inc(3);
  reg.gauge("depth").set(7);
  reg.gauge("depth").add(-7);
  Histogram& h = reg.histogram("wall", {10.0, 20.0});
  h.observe(5.0);
  h.observe(15.0);
  h.observe(99.0);

  const MetricsRegistry::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.at("jobs"), 3u);
  EXPECT_EQ(s.gauges.at("depth").value, 0);
  EXPECT_EQ(s.gauges.at("depth").max, 7);
  const MetricsRegistry::HistogramSnapshot& hs = s.histograms.at("wall");
  EXPECT_EQ(hs.bounds, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(hs.counts, (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 119.0);
  EXPECT_DOUBLE_EQ(hs.min, 5.0);
  EXPECT_DOUBLE_EQ(hs.max, 99.0);

  // The snapshot is a copy: later updates must not retro-change it.
  reg.counter("jobs").inc();
  EXPECT_EQ(s.counters.at("jobs"), 3u);
}

TEST(MetricsRegistry, JsonSnapshotParsesAndRoundTrips) {
  MetricsRegistry reg;
  reg.counter("a.b").inc(2);
  reg.gauge("g").set(-4);
  reg.histogram("h", {1.0}).observe(3.0);
  smt::JsonWriter w;
  w.begin_object();
  append_metrics_json(w, reg.snapshot());
  w.end_object();

  const auto v = smt::parse_json(w.str());
  ASSERT_TRUE(v.has_value() && v->is_object());
  EXPECT_EQ(v->find("counters")->find("a.b")->number, 2.0);
  EXPECT_EQ(v->find("gauges")->find("g")->find("value")->number, -4.0);
  const smt::JsonValue* h = v->find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 1.0);
  ASSERT_EQ(h->find("buckets")->array.size(), 2u);
  EXPECT_EQ(h->find("buckets")->array[1].find("le")->string, "inf");
  EXPECT_EQ(h->find("buckets")->array[1].find("count")->number, 1.0);
}

TEST(MetricsRegistry, EmptyHistogramJsonOmitsMinMax) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0});
  smt::JsonWriter w;
  w.begin_object();
  append_metrics_json(w, reg.snapshot());
  w.end_object();
  const auto v = smt::parse_json(w.str());
  ASSERT_TRUE(v.has_value());  // NaN would have broken the writer/parser
  const smt::JsonValue* h = v->find("histograms")->find("h");
  EXPECT_EQ(h->find("min"), nullptr);
  EXPECT_EQ(h->find("max"), nullptr);
}

// The tsan CI preset builds and runs this binary; racy counter updates
// or a torn histogram snapshot would be flagged there even though the
// arithmetic below would still pass under a data race.
TEST(MetricsRegistry, ConcurrentUpdatesFromManyThreadsSumExactly) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", {0.25, 0.5, 0.75});

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1);
        g.add(-1);
        // Deterministic spread across all four buckets.
        h.observe(static_cast<double>((t + i) % 4) / 4.0);
      }
    });
  }
  // Concurrent snapshots must be internally consistent even mid-run.
  for (int i = 0; i < 100; ++i) {
    const MetricsRegistry::Snapshot s = reg.snapshot();
    const MetricsRegistry::HistogramSnapshot& hs = s.histograms.at("h");
    uint64_t bucket_sum = 0;
    for (const uint64_t n : hs.counts) bucket_sum += n;
    EXPECT_EQ(bucket_sum, hs.count);
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), 0);
  EXPECT_LE(g.max(), kThreads);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t total = 0;
  for (const uint64_t n : h.bucket_counts()) total += n;
  EXPECT_EQ(total, h.count());
}

// A real pool run (two ok jobs and one structured failure on two
// workers) gives a registry and an index that agree; each single
// mutation of either side yields exactly the findings check_reports
// prints.
TEST(SweepMetrics, CheckNamesEachMismatch) {
  MetricsRegistry reg;
  for (const char* c : {"cache.lookups", "cache.hits", "cache.misses",
                        "cache.stores", "cache.verified",
                        "cache.verify_failed"}) {
    reg.counter(c);  // smt_sweep registers these up front, all-zero
  }
  std::vector<Job> jobs(3);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "j" + std::to_string(i);
    jobs[i].fn = [i](const CancelToken&, std::string* message) {
      if (i < 2) return JobStatus::kOk;
      *message = "deadlock";
      return JobStatus::kFailed;
    };
  }
  JobPoolConfig cfg;
  cfg.workers = 2;
  cfg.metrics = &reg;
  const std::vector<JobResult> results = run_jobs(cfg, jobs);
  SweepIndex index;
  index.workers = cfg.workers;
  for (size_t i = 0; i < jobs.size(); ++i) {
    IndexEntry e;
    e.name = jobs[i].name;
    e.outcome = results[i].status == JobStatus::kOk ? "ok" : "deadlock";
    e.attempts = 1;
    index.jobs.push_back(e);
  }
  const auto base = parse_json(sweep_metrics_json(reg, index, {}));
  ASSERT_TRUE(base.has_value());
  ASSERT_EQ(check_sweep_metrics(*base, index), std::vector<std::string>{});

  const auto counter = [](JsonValue& m, const char* name) -> double& {
    return m.object["counters"].object[name].number;
  };
  const auto wall_us = static_cast<uint64_t>(
      base->find("counters")->find("pool.wall_us")->number);
  const auto busy0 = static_cast<uint64_t>(
      base->find("workers")->array[0].find("busy_us")->number);
  const std::string late = std::to_string(wall_us + 10);
  const struct {
    const char* what;
    std::function<void(JsonValue&)> mutate;
    std::vector<std::string> findings;
  } cases[] = {
      {"other schema",
       [](JsonValue& m) { m.object["schema"].string = "smt-sweep-metrics/2"; },
       {"missing/unknown schema"}},
      {"no workers section", [](JsonValue& m) { m.object.erase("workers"); },
       {"missing sweep/counters/gauges/histograms/workers"}},
      {"wrong total",
       [](JsonValue& m) { m.object["sweep"].object["total"].number = 7; },
       {"sweep.total is 7, expected 3"}},
      {"lost ok job", [&](JsonValue& m) { counter(m, "pool.jobs_ok") = 0; },
       {"pool.jobs_ok is 0, expected 2"}},
      {"extra attempt",
       [&](JsonValue& m) { counter(m, "pool.attempts") = 4; },
       {"pool.attempts is 4, expected 3",
        "pool.attempts - pool.jobs_started is 1, expected 0"}},
      {"watchdog fire without a timeout",
       [&](JsonValue& m) { counter(m, "pool.watchdog_fires") = 1; },
       {"pool.watchdog_fires is 1, expected 0"}},
      {"lookup without reuse",
       [&](JsonValue& m) { counter(m, "cache.lookups") = 1; },
       {"cache.lookups is 1, expected 0",
        "cache.hits + cache.misses + cache.verify_failed is 0, expected 1"}},
      {"store without miss",
       [&](JsonValue& m) { counter(m, "cache.stores") = 1; },
       {"cache.stores 1 exceeds cache.misses 0"}},
      {"no attempt histogram",
       [](JsonValue& m) {
         m.object["histograms"].object.erase("pool.attempt_wall_ms");
       },
       {"missing pool.attempt_wall_ms histogram"}},
      {"histogram without buckets",
       [](JsonValue& m) {
         m.object["histograms"].object["pool.attempt_wall_ms"].object.erase(
             "buckets");
       },
       {"histogram missing buckets"}},
      {"no queue-depth gauge",
       [](JsonValue& m) {
         m.object["gauges"].object.erase("pool.queue_depth");
       },
       {"missing queue_depth/workers_busy gauges"}},
      {"busier than requested",
       [](JsonValue& m) {
         m.object["gauges"].object["pool.workers_busy"].object["max"].number =
             5;
       },
       {"workers_busy.max 5 outside [1, 2]"}},
      {"worker entry without busy_us",
       [](JsonValue& m) {
         m.object["workers"].array[0].object.erase("busy_us");
       },
       {"malformed workers[] entry"}},
      {"worker busy past the wall clock",
       [&](JsonValue& m) {
         m.object["workers"].array[0].object["busy_us"].number =
             static_cast<double>(wall_us + 10);
       },
       {"pool.worker0.busy_us is " + std::to_string(busy0) + ", expected " +
            late,
        "worker0 busy_us " + late + " exceeds wall_us " +
            std::to_string(wall_us)}},
  };
  for (const auto& c : cases) {
    JsonValue m = *base;
    c.mutate(m);
    EXPECT_EQ(check_sweep_metrics(m, index), c.findings) << c.what;
  }

  // The index side: a job the index calls cached that the cache counters
  // never saw.
  SweepIndex cached = index;
  cached.jobs[0].cached = true;
  EXPECT_EQ(check_sweep_metrics(*base, cached),
            std::vector<std::string>{"cache.hits is 0, expected 1"});
}

}  // namespace
}  // namespace smt::host
