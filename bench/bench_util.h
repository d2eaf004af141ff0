// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every bench binary registers its experiment runs as google-benchmark
// benchmarks (one iteration each — the simulator is deterministic, so
// repetition adds nothing), records the measurements in a shared registry,
// and prints the corresponding paper table/figure as aligned text after
// the google-benchmark run completes.
//
// Environment knobs:
//   SMT_BENCH_FULL=1          also run the largest (paper-scale-ratio) sizes
//   SMT_BENCH_CSV=1           additionally dump each table as CSV
//   SMT_BENCH_REPORT_DIR=dir  write a RunReport JSON artifact per recorded
//                             run into `dir` (see core/run_report.h)
//   SMT_BENCH_TRACE_DIR=dir   enable time-resolved telemetry on every run:
//                             reports gain a `timeseries` section and a
//                             Chrome trace-event file *.trace.json —
//                             loadable in Perfetto — lands in `dir` per
//                             recorded run
//   SMT_BENCH_PROFILE=1       enable the per-PC attribution profiler on
//                             every run: reports gain a `profile` section
//                             (hotspots + port occupancy; see
//                             tools/smt_annotate)
//   SMT_BENCH_INTERFERENCE=1  enable the SMT interference profiler on
//                             every run: reports gain an `interference`
//                             section (self- vs sibling-blamed stall
//                             cycles per resource; see tools/smt_explain)
//   SMT_BENCH_PIPEVIEW=1      enable per-uop pipeline lifetime traces: a
//                             Kanata file *.kanata — loadable in the
//                             Konata viewer — lands beside each report
//   SMT_BENCH_PIPEVIEW_WINDOW=B:E  (or just E) bound the pipeview capture
//                             to cycles [B, E] (default 0:100000)
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/table.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "perfmon/counters.h"
#include "trace/pipeview.h"
#include "trace/telemetry.h"

namespace smt::bench {

inline bool full_mode() {
  const char* v = std::getenv("SMT_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

inline bool csv_mode() {
  const char* v = std::getenv("SMT_BENCH_CSV");
  return v != nullptr && v[0] == '1';
}

inline bool profile_mode() {
  const char* v = std::getenv("SMT_BENCH_PROFILE");
  return v != nullptr && v[0] == '1';
}

inline bool interference_mode() {
  const char* v = std::getenv("SMT_BENCH_INTERFERENCE");
  return v != nullptr && v[0] == '1';
}

inline bool pipeview_mode() {
  const char* v = std::getenv("SMT_BENCH_PIPEVIEW");
  return v != nullptr && v[0] == '1';
}

/// Parses SMT_BENCH_PIPEVIEW_WINDOW ("begin:end" or just "end") into the
/// capture bounds; leaves the defaults untouched when unset or malformed.
inline void pipeview_window(Cycle* begin, Cycle* end) {
  const char* v = std::getenv("SMT_BENCH_PIPEVIEW_WINDOW");
  if (v == nullptr || v[0] == '\0') return;
  char* rest = nullptr;
  const unsigned long long a = std::strtoull(v, &rest, 10);
  if (rest == v) return;
  if (*rest == ':') {
    const char* second = rest + 1;
    const unsigned long long b = std::strtoull(second, &rest, 10);
    if (rest == second || b <= a) return;
    *begin = static_cast<Cycle>(a);
    *end = static_cast<Cycle>(b);
  } else if (*rest == '\0') {
    *end = static_cast<Cycle>(a);
  }
}

/// Directory for RunReport JSON artifacts, or "" when reporting is off.
inline const std::string& report_dir() {
  static const std::string dir = [] {
    const char* v = std::getenv("SMT_BENCH_REPORT_DIR");
    return std::string(v != nullptr ? v : "");
  }();
  return dir;
}

/// Directory for Chrome trace-event artifacts, or "" when tracing is off.
/// A nonempty value also enables process-global telemetry (see bench_main),
/// which adds a `timeseries` section to the RunReport artifacts.
inline const std::string& trace_dir() {
  static const std::string dir = [] {
    const char* v = std::getenv("SMT_BENCH_TRACE_DIR");
    return std::string(v != nullptr ? v : "");
  }();
  return dir;
}

/// Per-binary filename prefix for report artifacts (the basename of
/// argv[0], set by bench_main).
inline std::string& report_prefix() {
  static std::string prefix = "bench";
  return prefix;
}

/// Turns a registry key into a safe filename fragment. Collision-free:
/// distinct keys yield distinct fragments (keys with replaced characters
/// get a short hash of the raw key appended — see common/io.h — so e.g.
/// "a/b" and "a_b" no longer overwrite each other's artifacts).
inline std::string sanitize_key(const std::string& key) {
  return sanitize_artifact_key(key);
}

/// Registry of named measurements filled during the benchmark run and
/// consumed by the table printers afterwards.
///
/// Thread-safety contract: every accessor takes the registry mutex, so
/// runs may record results from multiple host threads (the sweep job
/// pool) concurrently. Keys are write-once — nothing is ever erased and
/// re-putting a key while another thread holds a reference from get() is
/// outside the contract — so the std::map node stability makes the
/// references returned by get() safe to hold after the lock is released.
class Results {
 public:
  static Results& instance() {
    static Results r;
    return r;
  }

  void put(const std::string& key, core::RunStats stats) {
    if (!report_dir().empty()) {
      const std::string path = report_dir() + "/" + report_prefix() + "." +
                               sanitize_key(key) + ".json";
      if (!core::RunReport::from(stats).write_json_file(path)) {
        std::fprintf(stderr, "warning: could not write report %s\n",
                     path.c_str());
      }
    }
    if (!trace_dir().empty() && stats.telemetry != nullptr) {
      const std::string path = trace_dir() + "/" + report_prefix() + "." +
                               sanitize_key(key) + ".trace.json";
      if (!trace::write_chrome_trace_file(*stats.telemetry, path)) {
        std::fprintf(stderr, "warning: could not write trace %s\n",
                     path.c_str());
      }
    }
    // Kanata pipeline traces land beside the reports (or the traces when
    // only tracing is on).
    const std::string& kanata_dir =
        !report_dir().empty() ? report_dir() : trace_dir();
    if (!kanata_dir.empty() && stats.pipeview != nullptr) {
      const std::string path = kanata_dir + "/" + report_prefix() + "." +
                               sanitize_key(key) + ".kanata";
      if (!trace::write_kanata_file(*stats.pipeview, path)) {
        std::fprintf(stderr, "warning: could not write pipeview %s\n",
                     path.c_str());
      }
    }
    const std::lock_guard<std::mutex> lock(mu_);
    stats_[key] = std::move(stats);
  }

  const core::RunStats& get(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = stats_.find(key);
    SMT_CHECK_MSG(it != stats_.end(), key.c_str());
    return it->second;
  }

  bool has(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_.count(key) > 0;
  }

  void put_value(const std::string& key, double v) {
    const std::lock_guard<std::mutex> lock(mu_);
    values_[key] = v;
  }
  double value(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = values_.find(key);
    SMT_CHECK_MSG(it != values_.end(), key.c_str());
    return it->second;
  }
  bool has_value(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return values_.count(key) > 0;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, core::RunStats> stats_;
  std::map<std::string, double> values_;
};

/// Registers a single-iteration benchmark that executes `fn` and reports
/// simulated cycles as the benchmark's "items".
inline void register_run(const std::string& name, std::function<void()> fn) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [fn = std::move(fn)](benchmark::State& state) {
                                 for (auto _ : state) fn();
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

/// Prints a table (and optionally CSV) under a titled banner.
inline void print_table(const std::string& title, const TextTable& t) {
  std::printf("\n=== %s ===\n%s", title.c_str(), t.to_string().c_str());
  if (csv_mode()) std::printf("\n[csv]\n%s", t.to_csv().c_str());
  std::fflush(stdout);
}

/// Standard main body: initialize, run registered benchmarks, then call
/// the binary's printer.
inline int bench_main(int argc, char** argv, std::function<void()> register_all,
                      std::function<void()> print_all) {
  if (argc > 0 && argv[0] != nullptr) {
    std::string base = argv[0];
    const size_t slash = base.find_last_of('/');
    if (slash != std::string::npos) base = base.substr(slash + 1);
    if (!base.empty()) report_prefix() = base;
  }
  if (!trace_dir().empty() || profile_mode() || interference_mode() ||
      pipeview_mode()) {
    trace::TelemetryConfig cfg;
    cfg.enabled = !trace_dir().empty();
    cfg.pc_profile = profile_mode();
    cfg.interference = interference_mode();
    cfg.pipeview = pipeview_mode();
    pipeview_window(&cfg.pipeview_begin, &cfg.pipeview_end);
    trace::set_global_telemetry(cfg);
  }
  benchmark::Initialize(&argc, argv);
  register_all();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_all();
  return 0;
}

}  // namespace smt::bench
