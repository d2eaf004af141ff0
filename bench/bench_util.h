// Shared infrastructure for the bench binaries that drive Machines by
// hand (Figures 1-2, Table 1, the sync ablation and the multiprogrammed
// pairs). Each is a plain main: it runs its experiments once (the
// simulator is deterministic, so repetition adds nothing), records the
// measurements in a shared registry, and prints the corresponding paper
// table/figure as aligned text. The kernel figures (3-5) and their
// ablations are registry jobs instead: smt_sweep runs them and
// tools/smt_figures prints their tables.
//
// Environment knobs:
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
//                             to cycles [B, E] (default 0:100000); any
//                             other value, or E <= B, exits 2 before any
//                             simulation
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
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

/// True when environment knob `name` is set to 1.
inline bool env_on(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

/// The value of environment knob `name`, or "" when unset.
inline std::string env_dir(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

/// Parses SMT_BENCH_PIPEVIEW_WINDOW ("begin:end" or just "end") into the
/// capture bounds; leaves the defaults untouched when unset. A malformed
/// or empty window is a usage error: the process exits 2 naming the
/// variable, so a mistyped window never records the default one.
inline void pipeview_window(Cycle* begin, Cycle* end) {
  const char* v = std::getenv("SMT_BENCH_PIPEVIEW_WINDOW");
  if (v == nullptr) return;
  const char* const stop = v + std::strlen(v);
  const char* colon = std::find(v, stop, ':');
  Cycle b = 0, e = 0;
  const auto whole = [](const char* first, const char* last, Cycle* out) {
    const auto [ptr, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && ptr == last && first != last;
  };
  const bool ok = colon == stop
                      ? whole(v, stop, &e)
                      : whole(v, colon, &b) && whole(colon + 1, stop, &e);
  if (!ok || e <= b) {
    std::fprintf(stderr,
                 "SMT_BENCH_PIPEVIEW_WINDOW=\"%s\": want BEGIN:END or END, "
                 "whole cycle counts with END > BEGIN\n",
                 v);
    std::exit(2);
  }
  *begin = b;
  *end = e;
}

/// Per-binary filename prefix for report artifacts (the basename of
/// argv[0], set by bench_main).
inline std::string& report_prefix() {
  static std::string prefix;
  return prefix;
}

/// Registry of named measurements filled while a bench binary runs its
/// experiments and consumed by its table printer afterwards; put() writes
/// a recorded run's artifacts.
class Results {
 public:
  static Results& instance() {
    static Results r;
    return r;
  }

  /// Writes a recorded run's artifacts: its report into
  /// SMT_BENCH_REPORT_DIR, its Chrome trace into SMT_BENCH_TRACE_DIR, and
  /// its Kanata trace beside the report (or the trace when only tracing
  /// is on). The file names are the binary's name, then `key`.
  void put(const std::string& key, const core::RunStats& stats) {
    static const std::string reports = env_dir("SMT_BENCH_REPORT_DIR");
    static const std::string traces = env_dir("SMT_BENCH_TRACE_DIR");
    const auto path = [&key](const std::string& dir, const char* ext) {
      return dir + "/" + report_prefix() + "." + sanitize_artifact_key(key) +
             ext;
    };
    const auto warn = [](const char* what, const std::string& file) {
      std::fprintf(stderr, "warning: could not write %s %s\n", what,
                   file.c_str());
    };
    if (!reports.empty() && !core::RunReport::from(stats).write_json_file(
                                path(reports, ".json"))) {
      warn("report", path(reports, ".json"));
    }
    if (!traces.empty() && stats.telemetry != nullptr &&
        !trace::write_chrome_trace_file(*stats.telemetry,
                                        path(traces, ".trace.json"))) {
      warn("trace", path(traces, ".trace.json"));
    }
    const std::string& kanata = !reports.empty() ? reports : traces;
    if (!kanata.empty() && stats.pipeview != nullptr &&
        !trace::write_kanata_file(*stats.pipeview, path(kanata, ".kanata"))) {
      warn("pipeview", path(kanata, ".kanata"));
    }
  }

  void put_value(const std::string& key, double v) {
    values_[key] = v;
  }
  double value(const std::string& key) const {
    auto it = values_.find(key);
    SMT_CHECK_MSG(it != values_.end(), key.c_str());
    return it->second;
  }
  bool has_value(const std::string& key) const {
    return values_.count(key) > 0;
  }

 private:
  std::map<std::string, double> values_;
};

/// Prints a table (and optionally CSV) under a titled banner.
inline void print_table(const std::string& title, const TextTable& t) {
  std::printf("\n=== %s ===\n%s", title.c_str(), t.to_string().c_str());
  if (env_on("SMT_BENCH_CSV")) {
    std::printf("\n[csv]\n%s", t.to_csv().c_str());
  }
  std::fflush(stdout);
}

/// Standard main body: read the environment knobs, run the binary's
/// experiments, then call its printer. Takes no arguments.
inline int bench_main(int argc, char** argv, std::function<void()> run_all,
                      std::function<void()> print_all) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (no arguments; see bench_util.h)\n",
                 argc > 0 ? argv[0] : "bench");
    return 2;
  }
  report_prefix() = std::filesystem::path(argv[0]).filename().string();
  trace::TelemetryConfig cfg;
  pipeview_window(&cfg.pipeview_begin, &cfg.pipeview_end);
  cfg.enabled = !env_dir("SMT_BENCH_TRACE_DIR").empty();
  cfg.pc_profile = env_on("SMT_BENCH_PROFILE");
  cfg.interference = env_on("SMT_BENCH_INTERFERENCE");
  cfg.pipeview = env_on("SMT_BENCH_PIPEVIEW");
  trace::set_global_telemetry(cfg);
  run_all();
  print_all();
  return 0;
}

}  // namespace smt::bench
