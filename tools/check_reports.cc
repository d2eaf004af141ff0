// Validates the artifacts a bench binary or sweep wrote:
//
//   $ check_reports <report-dir> [trace-dir]
//                   [--metrics <metrics.json> --index <sweep_index.json>]
//
// Every *.json in <report-dir> must parse as a smt-run-report/1 document
// that passes core::check_run_report (src/core/report_check.h): the
// required fields plus the exact-sum invariants of whichever optional
// timeseries/profile/interference sections it carries.
//
// With --dumps <dir>, every *.json there must parse as an
// smt-core-dump/1 post-mortem document (per-CPU architectural state,
// monotonic retirement ring, well-formed wait states and wait-for edges).
//
// When <trace-dir> is given, every *.trace.json there must parse as a
// Chrome trace-event document (object form with a `traceEvents` array of
// well-formed events) — the format Perfetto / chrome://tracing load.
//
// With --metrics/--index (always paired), the index must parse
// (host::parse_sweep_index, src/host/sweep_index.h) and the pool counters
// of the smt-sweep-metrics/1 snapshot must be arithmetically consistent
// with its per-job outcomes and attempt counts (see check_sweep_metrics).
//
// With --lint-report <file>, the file must parse as a smt-lint-report/1
// document (smt_lint --format=json): well-formed experiment/program/
// diagnostic nesting, every severity either "error" or "warning", and a
// totals object that exactly reproduces the recounted sums.
//
// Validation findings are printed as plain per-file stderr lines (they
// are the tool's product); operational failures (unreadable paths, bad
// usage) go through the structured logger. Exit status: 0 ok; 1 any
// validation finding (or an empty scan); 2 usage error; 3 I/O error (an
// unreadable path or artifact; outranks findings).
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/types.h"
#include "core/report_check.h"
#include "host/sweep_index.h"

namespace fs = std::filesystem;

namespace {

// An artifact's bytes; an unreadable one is an I/O error, not a finding.
std::optional<std::string> read_artifact(const fs::path& path,
                                         bool* io_error) {
  std::optional<std::string> text = smt::read_text_file(path);
  if (!text.has_value()) {
    smt::log::error("cannot read", {{"path", path.string()}});
    *io_error = true;
  }
  return text;
}

std::optional<smt::JsonValue> load_json_object(const fs::path& path,
                                               bool* io_error) {
  const std::optional<std::string> text = read_artifact(path, io_error);
  if (!text.has_value()) return std::nullopt;
  auto v = smt::parse_json(*text);
  if (!v.has_value() || !v->is_object()) {
    std::fprintf(stderr, "%s: does not parse as a JSON object\n",
                 path.c_str());
    return std::nullopt;
  }
  return v;
}

bool check_report(const fs::path& path, bool* io_error) {
  const auto v = load_json_object(path, io_error);
  if (!v.has_value()) return false;
  if (const auto finding = smt::core::check_run_report(*v)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), finding->c_str());
    return false;
  }
  return true;
}

// Validates one smt-core-dump/1 post-mortem document (see
// src/core/flight_recorder.h): failure outcome, per-CPU architectural
// state with a cycle-monotonic retirement ring, well-formed wait states
// and wait-for edges.
bool check_dump(const fs::path& path, bool* io_error) {
  const auto v = load_json_object(path, io_error);
  if (!v.has_value()) return false;
  const smt::JsonValue* schema = v->find("schema");
  if (schema == nullptr || schema->string != "smt-core-dump/1") {
    std::fprintf(stderr, "%s: missing/unknown schema\n", path.c_str());
    return false;
  }
  const smt::JsonValue* outcome = v->find("outcome");
  if (outcome == nullptr || !outcome->is_string() ||
      (outcome->string != "deadlock" &&
       outcome->string != "cycle_budget_exceeded" &&
       outcome->string != "race_detected")) {
    std::fprintf(stderr, "%s: missing/unknown outcome\n", path.c_str());
    return false;
  }
  if (v->find("workload") == nullptr || v->find("message") == nullptr ||
      !has_number(*v, "cycle")) {
    std::fprintf(stderr, "%s: missing workload/message/cycle\n",
                 path.c_str());
    return false;
  }
  const double cycle = v->find("cycle")->number;
  const smt::JsonValue* cpus = v->find("cpus");
  if (cpus == nullptr || !cpus->is_array() ||
      cpus->array.size() != static_cast<size_t>(smt::kNumLogicalCpus)) {
    std::fprintf(stderr, "%s: \"cpus\" is not a %d-entry array\n",
                 path.c_str(), smt::kNumLogicalCpus);
    return false;
  }
  for (size_t i = 0; i < cpus->array.size(); ++i) {
    const smt::JsonValue& c = cpus->array[i];
    const smt::JsonValue* mode = c.find("mode");
    const smt::JsonValue* wait = c.find("wait");
    const smt::JsonValue* iregs = c.find("iregs");
    const smt::JsonValue* fregs = c.find("fregs");
    const smt::JsonValue* recent = c.find("recent_retired");
    const smt::JsonValue* snaps = c.find("snapshots");
    if (mode == nullptr || !mode->is_string() || !has_number(c, "pc") ||
        c.find("disasm") == nullptr || !has_number(c, "rob") ||
        !has_number(c, "uop_queue") || !has_number(c, "load_queue") ||
        !has_number(c, "store_buffer") || wait == nullptr ||
        !wait->is_object() || iregs == nullptr || !iregs->is_array() ||
        fregs == nullptr || !fregs->is_array() || recent == nullptr ||
        !recent->is_array() || snaps == nullptr || !snaps->is_array()) {
      std::fprintf(stderr, "%s: cpu%zu entry malformed\n", path.c_str(), i);
      return false;
    }
    const smt::JsonValue* kind = wait->find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->string != "halt" && kind->string != "spin" &&
         kind->string != "none")) {
      std::fprintf(stderr, "%s: cpu%zu wait.kind malformed\n", path.c_str(),
                   i);
      return false;
    }
    double prev = -1.0;
    for (const smt::JsonValue& e : recent->array) {
      if (!has_number(e, "cycle") || !has_number(e, "pc") ||
          e.find("disasm") == nullptr) {
        std::fprintf(stderr, "%s: cpu%zu recent_retired entry malformed\n",
                     path.c_str(), i);
        return false;
      }
      const double ecycle = e.find("cycle")->number;
      if (ecycle < prev || ecycle > cycle) {
        std::fprintf(stderr,
                     "%s: cpu%zu recent_retired cycles not monotonic within "
                     "the run\n",
                     path.c_str(), i);
        return false;
      }
      prev = ecycle;
    }
  }
  const smt::JsonValue* sync_words = v->find("sync_words");
  const smt::JsonValue* wait_for = v->find("wait_for");
  if (sync_words == nullptr || !sync_words->is_array() ||
      wait_for == nullptr || !wait_for->is_array()) {
    std::fprintf(stderr, "%s: missing sync_words/wait_for arrays\n",
                 path.c_str());
    return false;
  }
  for (const smt::JsonValue& e : wait_for->array) {
    const smt::JsonValue* why = e.find("why");
    if (!has_number(e, "from") || !has_number(e, "to") || why == nullptr ||
        !why->is_string()) {
      std::fprintf(stderr, "%s: malformed wait_for edge\n", path.c_str());
      return false;
    }
  }
  return true;
}

// Validates one Chrome trace-event document: object form, `traceEvents`
// array, every event an object with name/ph/pid/tid/ts of the right
// types, complete ("X") events carrying a nonnegative dur.
bool check_trace(const fs::path& path, bool* io_error) {
  const auto v = load_json_object(path, io_error);
  if (!v.has_value()) return false;
  const smt::JsonValue* events = v->find("traceEvents");
  if (events == nullptr || !events->is_array() || events->array.empty()) {
    std::fprintf(stderr, "%s: missing/empty traceEvents array\n",
                 path.c_str());
    return false;
  }
  for (const smt::JsonValue& e : events->array) {
    const smt::JsonValue* name = e.find("name");
    const smt::JsonValue* ph = e.find("ph");
    if (!e.is_object() || name == nullptr || !name->is_string() ||
        ph == nullptr || !ph->is_string() || ph->string.size() != 1 ||
        !has_number(e, "pid") || !has_number(e, "tid") ||
        !has_number(e, "ts")) {
      std::fprintf(stderr, "%s: malformed trace event\n", path.c_str());
      return false;
    }
    if (ph->string == "X" &&
        (!has_number(e, "dur") || e.find("dur")->number < 0)) {
      std::fprintf(stderr, "%s: complete event without dur\n", path.c_str());
      return false;
    }
  }
  return true;
}

// Validates one smt-lint-report/1 document (smt_lint --format=json):
// structure plus the totals-vs-recount invariant.
bool check_lint_report(const fs::path& path, bool* io_error) {
  const auto v = load_json_object(path, io_error);
  if (!v.has_value()) return false;
  const smt::JsonValue* schema = v->find("schema");
  if (schema == nullptr || schema->string != "smt-lint-report/1") {
    std::fprintf(stderr, "%s: missing/unknown schema\n", path.c_str());
    return false;
  }
  const smt::JsonValue* experiments = v->find("experiments");
  const smt::JsonValue* totals = v->find("totals");
  if (experiments == nullptr || !experiments->is_array() ||
      totals == nullptr || !totals->is_object()) {
    std::fprintf(stderr, "%s: missing experiments/totals\n", path.c_str());
    return false;
  }
  double errors = 0, warnings = 0, programs = 0;
  for (const smt::JsonValue& exp : experiments->array) {
    const smt::JsonValue* name = exp.find("name");
    const smt::JsonValue* progs = exp.find("programs");
    if (name == nullptr || !name->is_string() || progs == nullptr ||
        !progs->is_array()) {
      std::fprintf(stderr, "%s: malformed experiment entry\n", path.c_str());
      return false;
    }
    for (const smt::JsonValue& prog : progs->array) {
      ++programs;
      const smt::JsonValue* pname = prog.find("name");
      const smt::JsonValue* diags = prog.find("diagnostics");
      if (pname == nullptr || !pname->is_string() || diags == nullptr ||
          !diags->is_array()) {
        std::fprintf(stderr, "%s: malformed program entry\n", path.c_str());
        return false;
      }
      for (const smt::JsonValue& d : diags->array) {
        const smt::JsonValue* check = d.find("check");
        const smt::JsonValue* severity = d.find("severity");
        const smt::JsonValue* message = d.find("message");
        if (check == nullptr || !check->is_string() || severity == nullptr ||
            !severity->is_string() || message == nullptr ||
            !message->is_string() || !has_number(d, "pc") ||
            !has_number(d, "block")) {
          std::fprintf(stderr, "%s: malformed diagnostic entry\n",
                       path.c_str());
          return false;
        }
        if (severity->string == "error") {
          ++errors;
        } else if (severity->string == "warning") {
          ++warnings;
        } else {
          std::fprintf(stderr, "%s: unknown severity \"%s\"\n", path.c_str(),
                       severity->string.c_str());
          return false;
        }
      }
    }
  }
  bool ok = true;
  const struct {
    const char* key;
    double want;
  } recount[] = {{"errors", errors},
                 {"warnings", warnings},
                 {"programs", programs},
                 {"experiments",
                  static_cast<double>(experiments->array.size())}};
  for (const auto& [key, want] : recount) {
    const double got = number_or(*totals, key, -1.0);
    if (got != want) {
      std::fprintf(stderr, "%s: totals.%s is %.0f, recount says %.0f\n",
                   path.c_str(), key, got, want);
      ok = false;
    }
  }
  return ok;
}

// Cross-checks a smt-sweep-metrics/1 snapshot against the sweep index it
// was written beside, once the index parses (a malformed index, or one
// whose total/failed disagree with its entries, is a finding). The pool
// counters are redundant with the index by construction, which makes
// them checkable (cancelled = index jobs the pool-level cancel skipped
// before they started; lint_failed = jobs the --lint gate withheld from
// the pool, always with attempts == 0;
// started = total - cancelled - lint_failed):
//
//   jobs_started == jobs_completed == started; jobs_skipped == cancelled
//   jobs_ok == total - failed;  jobs_failed + jobs_timeout ==
//                                  failed - cancelled - lint_failed
//   attempts == sum(index jobs[].attempts) == started + jobs_retried
//   watchdog_fires == jobs_retried + jobs_timeout  (retries only follow
//                                                   watchdog timeouts)
//   attempt_wall_ms histogram: count == attempts, bucket counts sum to it
//   queue_depth gauge drained to the cancelled count from a high
//     watermark of total - lint_failed (lint-failed jobs are never
//     enqueued); workers_busy drained to 0, peak <= requested
//   one workers[] entry per pool worker, busy_us consistent with the
//   per-worker counters and <= wall_us + 1µs rounding slack
//
//   cache.* counters vs the index's "cached"/"outcome" fields:
//     lookups == hits + misses + verify_failed
//     lookups == started when the sweep ran with cache/resume, else 0
//     hits == #jobs with "cached":true
//     verify_failed == #jobs with outcome "cache_verify_failed"
//     stores <= misses; verified <= hits
bool check_sweep_metrics(const fs::path& metrics_path,
                         const fs::path& index_path, bool* io_error) {
  const auto mv = load_json_object(metrics_path, io_error);
  const auto index_text = read_artifact(index_path, io_error);
  if (!mv.has_value() || !index_text.has_value()) return false;

  const smt::JsonValue* schema = mv->find("schema");
  if (schema == nullptr || schema->string != "smt-sweep-metrics/1") {
    std::fprintf(stderr, "%s: missing/unknown schema\n", metrics_path.c_str());
    return false;
  }
  smt::host::SweepIndex index;
  if (const auto finding = smt::host::parse_sweep_index(*index_text, &index)) {
    std::fprintf(stderr, "%s: %s\n", index_path.c_str(), finding->c_str());
    return false;
  }

  // Index-side ground truth.
  const double index_total = index.jobs.size();
  const double index_failed = index.failed();
  double index_attempts = 0;
  double index_cancelled = 0;
  double index_lint_failed = 0;
  double index_cached = 0;
  double index_verify_failed = 0;
  for (const smt::host::IndexEntry& job : index.jobs) {
    if (job.outcome == "cancelled") ++index_cancelled;
    if (job.outcome == "lint_failed") ++index_lint_failed;
    if (job.outcome == "cache_verify_failed") ++index_verify_failed;
    if (job.cached) ++index_cached;
    index_attempts += job.attempts;
  }
  const double index_started =
      index_total - index_cancelled - index_lint_failed;

  const smt::JsonValue* sweep = mv->find("sweep");
  const smt::JsonValue* counters = mv->find("counters");
  const smt::JsonValue* gauges = mv->find("gauges");
  const smt::JsonValue* histograms = mv->find("histograms");
  const smt::JsonValue* workers = mv->find("workers");
  if (sweep == nullptr || !sweep->is_object() || counters == nullptr ||
      !counters->is_object() || gauges == nullptr || !gauges->is_object() ||
      histograms == nullptr || !histograms->is_object() ||
      workers == nullptr || !workers->is_array()) {
    std::fprintf(stderr,
                 "%s: missing sweep/counters/gauges/histograms/workers\n",
                 metrics_path.c_str());
    return false;
  }

  bool ok = true;
  const auto expect = [&](const char* what, double got, double want) {
    if (got != want) {
      std::fprintf(stderr, "%s: %s is %.0f, expected %.0f\n",
                   metrics_path.c_str(), what, got, want);
      ok = false;
    }
  };
  const auto counter = [&](const char* name) {
    return number_or(*counters, name, -1.0);
  };

  expect("sweep.total", number_or(*sweep, "total", -1.0), index_total);
  expect("sweep.failed", number_or(*sweep, "failed", -1.0), index_failed);
  expect("pool.jobs_started", counter("pool.jobs_started"), index_started);
  expect("pool.jobs_completed", counter("pool.jobs_completed"),
         index_started);
  expect("pool.jobs_skipped", counter("pool.jobs_skipped"), index_cancelled);
  expect("pool.jobs_ok", counter("pool.jobs_ok"),
         index_total - index_failed);
  expect("pool.jobs_failed + pool.jobs_timeout",
         counter("pool.jobs_failed") + counter("pool.jobs_timeout"),
         index_failed - index_cancelled - index_lint_failed);
  expect("pool.attempts", counter("pool.attempts"), index_attempts);
  expect("pool.attempts - pool.jobs_retried",
         counter("pool.attempts") - counter("pool.jobs_retried"),
         index_started);
  expect("pool.watchdog_fires", counter("pool.watchdog_fires"),
         counter("pool.jobs_retried") + counter("pool.jobs_timeout"));

  // Result-cache counters. A sweep that ran without --cache/--resume must
  // show zero lookups; one that ran with either looks up every job it
  // actually started, exactly once, and every lookup resolves to a hit,
  // a miss, or a failed verification.
  const auto flag = [&](const char* name) {
    const smt::JsonValue* v = sweep->find(name);
    return v != nullptr && v->type == smt::JsonValue::Type::kBool &&
           v->boolean;
  };
  const bool reuse_enabled = flag("cache") || flag("resume");
  expect("cache.lookups", counter("cache.lookups"),
         reuse_enabled ? index_started : 0.0);
  expect("cache.hits + cache.misses + cache.verify_failed",
         counter("cache.hits") + counter("cache.misses") +
             counter("cache.verify_failed"),
         counter("cache.lookups"));
  expect("cache.hits", counter("cache.hits"), index_cached);
  expect("cache.verify_failed", counter("cache.verify_failed"),
         index_verify_failed);
  if (counter("cache.stores") > counter("cache.misses")) {
    std::fprintf(stderr, "%s: cache.stores %.0f exceeds cache.misses %.0f\n",
                 metrics_path.c_str(), counter("cache.stores"),
                 counter("cache.misses"));
    ok = false;
  }
  if (counter("cache.verified") > counter("cache.hits")) {
    std::fprintf(stderr, "%s: cache.verified %.0f exceeds cache.hits %.0f\n",
                 metrics_path.c_str(), counter("cache.verified"),
                 counter("cache.hits"));
    ok = false;
  }

  const smt::JsonValue* hist = histograms->find("pool.attempt_wall_ms");
  if (hist == nullptr || !hist->is_object()) {
    std::fprintf(stderr, "%s: missing pool.attempt_wall_ms histogram\n",
                 metrics_path.c_str());
    ok = false;
  } else {
    expect("attempt_wall_ms.count", number_or(*hist, "count", -1.0),
           index_attempts);
    const smt::JsonValue* buckets = hist->find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      std::fprintf(stderr, "%s: histogram missing buckets\n",
                   metrics_path.c_str());
      ok = false;
    } else {
      double bucket_sum = 0;
      for (const smt::JsonValue& b : buckets->array) {
        bucket_sum += number_or(b, "count", 0.0);
      }
      expect("attempt_wall_ms bucket sum", bucket_sum, index_attempts);
    }
  }

  const smt::JsonValue* depth = gauges->find("pool.queue_depth");
  const smt::JsonValue* busy = gauges->find("pool.workers_busy");
  if (depth == nullptr || busy == nullptr) {
    std::fprintf(stderr, "%s: missing queue_depth/workers_busy gauges\n",
                 metrics_path.c_str());
    ok = false;
  } else {
    // Skipped jobs are never dequeued, so a cancelled sweep's depth gauge
    // drains to exactly the number of jobs the cancel left behind.
    expect("queue_depth.value", number_or(*depth, "value", -1.0),
           index_cancelled);
    expect("queue_depth.max", number_or(*depth, "max", -1.0),
           index_total - index_lint_failed);
    expect("workers_busy.value", number_or(*busy, "value", -1.0), 0);
    const double peak = number_or(*busy, "max", -1.0);
    const double requested = number_or(*sweep, "requested_workers", 0.0);
    if (peak < (index_started > 0 ? 1.0 : 0.0) || peak > requested) {
      std::fprintf(stderr,
                   "%s: workers_busy.max %.0f outside [%.0f, %0.f]\n",
                   metrics_path.c_str(), peak,
                   index_started > 0 ? 1.0 : 0.0, requested);
      ok = false;
    }
  }

  expect("workers[] size", workers->array.size(),
         counter("pool.workers"));
  const double wall_us = counter("pool.wall_us");
  for (const smt::JsonValue& w : workers->array) {
    if (!has_number(w, "worker") || !has_number(w, "busy_us") ||
        !has_number(w, "busy_fraction")) {
      std::fprintf(stderr, "%s: malformed workers[] entry\n",
                   metrics_path.c_str());
      ok = false;
      continue;
    }
    const double id = w.find("worker")->number;
    const double busy_us = w.find("busy_us")->number;
    const std::string counter_name =
        "pool.worker" + std::to_string(static_cast<int>(id)) + ".busy_us";
    expect(counter_name.c_str(), number_or(*counters, counter_name, -1.0),
           busy_us);
    // Both figures round independently from ms doubles, so allow one µs
    // of slack rather than demanding busy_us <= wall_us exactly.
    if (busy_us > wall_us + 1.0) {
      std::fprintf(stderr, "%s: worker%d busy_us %.0f exceeds wall_us %.0f\n",
                   metrics_path.c_str(), static_cast<int>(id), busy_us,
                   wall_us);
      ok = false;
    }
  }
  return ok;
}

// Scans `dir` for files ending in `suffix` and runs `fn` on each (an
// unreadable file sets *io_error); returns {checked, bad}.
template <typename Fn>
std::pair<int, int> scan(const fs::path& dir, const std::string& suffix,
                         bool exclude_traces, Fn fn, bool* io_error) {
  int checked = 0, bad = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    // A single dir may hold both kinds of artifact; *.trace.json are not
    // run reports.
    if (exclude_traces && name.size() >= 11 &&
        name.compare(name.size() - 11, 11, ".trace.json") == 0)
      continue;
    ++checked;
    if (!fn(entry.path(), io_error)) ++bad;
  }
  return {checked, bad};
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <report-dir> [trace-dir]"
               " [--metrics FILE --index FILE] [--dumps DIR]"
               " [--lint-report FILE]\n"
               "       %s --lint-report FILE\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string metrics_file;
  std::string index_file;
  std::string dumps_dir;
  std::string lint_report_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--metrics" || a == "--index" || a == "--dumps" ||
        a == "--lint-report") {
      if (i + 1 >= argc) {
        smt::log::error("option requires an argument", {{"option", a}});
        return usage(argv[0]);
      }
      (a == "--metrics"       ? metrics_file
       : a == "--index"       ? index_file
       : a == "--lint-report" ? lint_report_file
                              : dumps_dir) = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      smt::log::error("unknown option", {{"option", a}});
      return usage(argv[0]);
    } else {
      dirs.push_back(a);
    }
  }
  // --metrics without --index (or vice versa) has nothing to cross-check
  // against: the counters are only validatable relative to an index.
  if (metrics_file.empty() != index_file.empty()) {
    smt::log::error("--metrics and --index must be given together");
    return usage(argv[0]);
  }
  // A lint report stands on its own, so <report-dir> is optional when
  // --lint-report is the only thing to check.
  if (dirs.size() > 2 || (dirs.empty() && lint_report_file.empty()))
    return usage(argv[0]);

  int bad = 0;
  bool io_error = false;
  if (!dirs.empty()) {
    const fs::path dir = dirs[0];
    if (!fs::is_directory(dir)) {
      smt::log::error("not a directory", {{"path", dir.string()}});
      return 3;
    }
    auto [checked, dir_bad] = scan(dir, ".json", /*exclude_traces=*/true,
                                   check_report, &io_error);
    if (checked == 0) {
      std::fprintf(stderr, "%s: no report artifacts found\n", dir.c_str());
      return 1;
    }
    std::printf("%d report(s) checked, %d bad\n", checked, dir_bad);
    bad += dir_bad;
  }
  if (dirs.size() == 2) {
    const fs::path tdir = dirs[1];
    if (!fs::is_directory(tdir)) {
      smt::log::error("not a directory", {{"path", tdir.string()}});
      return 3;
    }
    auto [tchecked, tbad] = scan(tdir, ".trace.json",
                                 /*exclude_traces=*/false, check_trace,
                                 &io_error);
    if (tchecked == 0) {
      std::fprintf(stderr, "%s: no trace artifacts found\n", tdir.c_str());
      return 1;
    }
    std::printf("%d trace(s) checked, %d bad\n", tchecked, tbad);
    bad += tbad;
  }
  if (!metrics_file.empty()) {
    if (check_sweep_metrics(metrics_file, index_file, &io_error)) {
      std::printf("metrics snapshot consistent with sweep index\n");
    } else {
      ++bad;
    }
  }
  if (!dumps_dir.empty()) {
    const fs::path ddir = dumps_dir;
    if (!fs::is_directory(ddir)) {
      smt::log::error("not a directory", {{"path", ddir.string()}});
      return 3;
    }
    auto [dchecked, dbad] = scan(ddir, ".json", /*exclude_traces=*/false,
                                 check_dump, &io_error);
    if (dchecked == 0) {
      std::fprintf(stderr, "%s: no core-dump artifacts found\n",
                   ddir.c_str());
      return 1;
    }
    std::printf("%d dump(s) checked, %d bad\n", dchecked, dbad);
    bad += dbad;
  }
  if (!lint_report_file.empty()) {
    if (check_lint_report(lint_report_file, &io_error)) {
      std::printf("lint report valid\n");
    } else {
      ++bad;
    }
  }
  if (io_error) return 3;
  return bad == 0 ? 0 : 1;
}
