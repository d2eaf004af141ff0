// smt_sweep: host-parallel experiment orchestrator over the paper's
// figure/table workload suite.
//
//   $ smt_sweep [options] [experiment names...]
//
//   --jobs N          worker threads (default: host hardware concurrency)
//   --out DIR         output directory (default "sweep-out")
//   --manifest NAME   run a registry manifest (host::kManifests: default,
//                     ablation, full, streams, table1, sync, multiprog,
//                     selftest) after any named jobs; with no names and
//                     no manifest, runs "default"
//   --timeout-ms N    per-job wall-clock watchdog (0 = off, default). A
//                     watchdog-killed job ends as "timeout" (exit 1) and
//                     is never cached, so running again with the same
//                     --cache finishes exactly the timed-out jobs
//   --metrics FILE    write a smt-sweep-metrics/1 snapshot of the pool's
//                     counters/gauges/histograms (watchdog fires, queue
//                     depth, attempt wall times, per-worker busy time);
//                     format and validator: src/host/metrics.h
//   --trace FILE      write a Chrome trace-event (Perfetto-loadable)
//                     timeline of the sweep: one track per worker, one
//                     span per job colored by its outcome
//   --profile         attach the per-PC attribution profiler to every
//                     job: reports gain a `profile` section (hotspots and
//                     port occupancy; tools/smt_annotate reads it, and
//                     Table 1's instruction mix comes from it)
//   --interference    attach the SMT interference profiler to every job:
//                     reports gain an `interference` section (self- vs
//                     sibling-blamed stall cycles per resource;
//                     tools/smt_explain reads it)
//   --telemetry       attach time-resolved telemetry to every job:
//                     reports gain a `timeseries` section, and a Chrome
//                     trace-event file (Perfetto-loadable) per job lands
//                     in <out>/traces/
//   --pipeview[=B:E]  record per-uop pipeline lifetimes for every job
//                     over cycles [B, E] (or [0, E] given just E; default
//                     0:100000); a Kanata file (Konata-loadable) per job
//                     lands in <out>/pipeview/. Any other window, or
//                     E <= B, is a usage error. The other reports stay
//                     byte-identical.
//                     Each instrument enters the jobs' result keys, so a
//                     --cache never mixes instrumented and plain reports.
//   --cache DIR       content-addressed result store (host::ResultStore):
//                     jobs whose key (program digests + config hash +
//                     budget/options + report epoch) already has a stored
//                     object skip simulation entirely, materialize their
//                     report/dump from the cache, and are marked
//                     "cached":true in the index — which stays
//                     byte-identical to an uncached run's modulo that
//                     field (and wall_ms, which is wall-clock data).
//                     Misses store their result as soon as their job
//                     ends, so an interrupted sweep finishes when run
//                     again with the same --cache: the stored jobs hit
//                     and only the rest simulate.
//                     Incompatible with --pipeview and --telemetry (Kanata
//                     and Chrome-trace artifacts are not cached, so a hit
//                     could not reproduce them).
//   --cache-verify[=N]  determinism audit (requires --cache): re-simulate
//                     every cache hit, or with =N the first N hits in
//                     claim order (longest baseline first, see below;
//                     precisely, the hits among the first N jobs
//                     claimed), and byte-compare report and dump against
//                     the stored object. Each audited hit logs "cache hit
//                     verified" (info level) with job=<name>. A divergence
//                     is reported as the structured
//                     outcome "cache_verify_failed" (job fails, fresh
//                     artifacts win) — it means either nondeterminism or
//                     a model change behind an unchanged key.
//   --lint            static pre-run gate: run the abstract-interpretation
//                     verifier (host::lint_workload, as smt_lint does)
//                     over every job's emitted programs before the pool
//                     starts. A job with any error-severity diagnostic is
//                     never simulated: it is indexed as "lint_failed"
//                     (exit 1) and its diagnostics go to stderr. Warnings
//                     are reported but do not gate.
//   --quiet           errors only: no progress line, log level error
//   --list            print the experiment registry (each job with its
//                     manifest) and exit
//
// Every numeric value must be a whole decimal number in its option's
// range; anything else is a usage error.
//
// Every job runs a fresh deterministic Machine simulation, within its
// definition's cycle budget, through the non-aborting
// core::try_run_workload path on the host::JobPool, so one
// deadlocked or over-budget job cannot abort the process or lose the other
// jobs' measurements. Per-job RunReport JSON artifacts land in <out>/reports/
// (also for failed jobs — a partial report is still data), and a merged
// <out>/sweep_index.json (format: src/host/sweep_index.h) records every job in
// manifest order regardless of scheduling. The pool claims jobs longest first:
// a job's estimate is the cycles of its baseline in bench/history/ under the
// working directory (host::baseline_cycles, the run smt_history check compares
// against); jobs without one follow in manifest order, so with no bench/history
// the claim order is the manifest's. The "sweep starting" log record counts the
// estimated jobs. Every job runs with the post-mortem flight recorder attached
// (a pure observer — reports are unaffected); when a job dies in deadlock /
// cycle-budget exhaustion / a detected race, its smt-core-dump/1 document lands
// in <out>/dumps/, named by its index entry — feed it to tools/smt_explain for
// a diagnosis. Because each job's artifact depends only on its definition, a
// parallel sweep's reports are byte-identical to a serial (--jobs 1) run's —
// and stay that way with --metrics and --trace enabled, since those artifacts
// are wall-clock data in separate files. While running, a progress line
// (completed/total, failures, ETA) is maintained on stderr when it is a
// terminal.
//
// Exit status: 0 when every job is ok; 1 with the failed jobs logged
// otherwise (the index and surviving reports are complete either way);
// 2 on usage errors (an unknown option, manifest or experiment, or a
// malformed number or pipeview window); 3 when an artifact cannot be
// written.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/lint.h"
#include "common/io.h"
#include "common/log.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "core/workload.h"
#include "host/bench_history.h"
#include "host/experiments.h"
#include "host/job_pool.h"
#include "host/metrics.h"
#include "host/result_store.h"
#include "host/sweep_index.h"
#include "host/sweep_trace.h"
#include "trace/pipeview.h"
#include "trace/telemetry.h"

namespace {

using smt::host::AttemptEvent;
using smt::host::ExperimentDef;
using smt::host::IndexEntry;
using smt::host::JobStatus;

constexpr int kExitJobFailures = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

struct SweepOptions {
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  std::string out_dir = "sweep-out";
  std::string manifest;          // "" = none named
  std::string metrics_path;
  std::string trace_path;
  long timeout_ms = 0;
  std::string cache_dir;        // "" = no result cache
  long cache_verify = -1;       // -1 off; LONG_MAX bare flag; N = sample
  bool lint = false;
  /// The instruments attached to every job (--profile, --interference,
  /// --telemetry, --pipeview).
  smt::trace::TelemetryConfig instruments;
  bool quiet = false;
  bool list = false;
  std::vector<std::string> names;  // explicit positional selections
};

/// Cache observability, shared across worker threads. Registered
/// in the metrics registry up front (all-zero when caching is off) so
/// the metrics schema is stable and check_reports can cross-check:
/// lookups == hits + misses + verify_failed, hits == index "cached"
/// count, stores <= misses, verified <= hits.
struct CacheCounters {
  explicit CacheCounters(smt::host::MetricsRegistry& reg)
      : lookups(reg.counter("cache.lookups")),
        hits(reg.counter("cache.hits")),
        misses(reg.counter("cache.misses")),
        stores(reg.counter("cache.stores")),
        verified(reg.counter("cache.verified")),
        verify_failed(reg.counter("cache.verify_failed")) {}

  smt::host::Counter& lookups;
  smt::host::Counter& hits;
  smt::host::Counter& misses;
  smt::host::Counter& stores;
  smt::host::Counter& verified;
  smt::host::Counter& verify_failed;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--out DIR] [--manifest NAME]\n"
               "       [--timeout-ms N] [--metrics FILE] [--trace FILE]\n"
               "       [--profile] [--interference] [--telemetry]\n"
               "       [--pipeview[=B:E]] [--cache DIR] [--cache-verify[=N]]\n"
               "       [--lint] [--quiet] [--list] [experiment names...]\n",
               argv0);
  return kExitUsage;
}

/// `text` as a whole decimal number in [lo, hi]; std::nullopt, logged
/// with `flag`, when it is anything else (a sign, trailing characters,
/// out of range).
std::optional<uint64_t> parse_count(const char* flag, const char* text,
                                    uint64_t lo, uint64_t hi) {
  uint64_t v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || ptr == text || v < lo || v > hi) {
    smt::log::error("option needs a whole number in range",
                    {{"option", flag},
                     {"value", text},
                     {"min", lo},
                     {"max", hi}});
    return std::nullopt;
  }
  return v;
}

/// Parses a --pipeview window ("B:E", or "E" for [0, E]) into `cfg`;
/// false, logged, when it is anything else or E <= B.
bool parse_pipeview_window(const char* text,
                           smt::trace::TelemetryConfig* cfg) {
  const char* const stop = text + std::strlen(text);
  const char* colon = std::find(text, stop, ':');
  smt::Cycle b = 0, e = 0;
  const auto whole = [](const char* first, const char* last, smt::Cycle* out) {
    const auto [ptr, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && ptr == last && first != last;
  };
  const bool ok = colon == stop
                      ? whole(text, stop, &e)
                      : whole(text, colon, &b) && whole(colon + 1, stop, &e);
  if (!ok || e <= b) {
    smt::log::error("pipeview window needs BEGIN:END or END, whole cycle "
                    "counts with END > BEGIN",
                    {{"option", "--pipeview"}, {"value", text}});
    return false;
  }
  cfg->pipeview_begin = b;
  cfg->pipeview_end = e;
  return true;
}

bool parse_args(int argc, char** argv, SweepOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        smt::log::error("option requires an argument", {{"option", flag}});
        return nullptr;
      }
      return argv[++i];
    };
    // Stores the value of option `flag` in `*out`: a string as is, a
    // number through parse_count's [lo, hi] check.
    auto text = [&](const char* flag, std::string* out) {
      const char* v = next(flag);
      if (v != nullptr) *out = v;
      return v != nullptr;
    };
    auto number = [&](const char* flag, auto* out, uint64_t lo, uint64_t hi) {
      const char* v = next(flag);
      const std::optional<uint64_t> n =
          v == nullptr ? std::nullopt : parse_count(flag, v, lo, hi);
      if (n.has_value()) *out = static_cast<std::decay_t<decltype(*out)>>(*n);
      return n.has_value();
    };
    bool ok = true;
    if (a == "--jobs") {
      ok = number("--jobs", &opt->jobs, 1, 1024);
    } else if (a == "--out") {
      ok = text("--out", &opt->out_dir);
    } else if (a == "--manifest") {
      ok = text("--manifest", &opt->manifest);
      if (ok && smt::host::manifest(opt->manifest).empty()) {
        smt::log::error("unknown manifest", {{"manifest", opt->manifest}});
        ok = false;
      }
    } else if (a == "--metrics") {
      ok = text("--metrics", &opt->metrics_path);
    } else if (a == "--trace") {
      ok = text("--trace", &opt->trace_path);
    } else if (a == "--timeout-ms") {
      ok = number("--timeout-ms", &opt->timeout_ms, 0, INT32_MAX);
    } else if (a == "--cache") {
      ok = text("--cache", &opt->cache_dir);
    } else if (a == "--cache-verify") {
      opt->cache_verify = LONG_MAX;  // audit every hit
    } else if (a.rfind("--cache-verify=", 0) == 0) {
      const auto v = parse_count("--cache-verify",
                                 argv[i] + std::strlen("--cache-verify="), 1,
                                 LONG_MAX);
      ok = v.has_value();
      if (ok) opt->cache_verify = static_cast<long>(*v);
    } else if (a == "--lint") {
      opt->lint = true;
    } else if (a == "--profile") {
      opt->instruments.pc_profile = true;
    } else if (a == "--interference") {
      opt->instruments.interference = true;
    } else if (a == "--telemetry") {
      opt->instruments.enabled = true;
    } else if (a == "--pipeview") {
      opt->instruments.pipeview = true;
    } else if (a.rfind("--pipeview=", 0) == 0) {
      opt->instruments.pipeview = true;
      ok = parse_pipeview_window(argv[i] + std::strlen("--pipeview="),
                                 &opt->instruments);
    } else if (a == "--quiet") {
      opt->quiet = true;
    } else if (a == "--list") {
      opt->list = true;
    } else if (!a.empty() && a[0] == '-') {
      smt::log::error("unknown option", {{"option", a}});
      ok = false;
    } else {
      opt->names.push_back(a);
    }
    if (!ok) return false;
  }
  if (opt->jobs < 1) opt->jobs = 1;  // hardware_concurrency() may be 0
  if (opt->cache_verify != -1 && opt->cache_dir.empty()) {
    smt::log::error("--cache-verify requires --cache");
    return false;
  }
  if ((opt->instruments.pipeview || opt->instruments.enabled) &&
      !opt->cache_dir.empty()) {
    // A cache hit skips simulation, so a pipeview'd or traced
    // sweep could not reproduce its Kanata or Chrome-trace artifacts from
    // reused results — refuse up front rather than silently dropping
    // traces.
    smt::log::error(
        "--pipeview and --telemetry are incompatible with --cache");
    return false;
  }
  return true;
}

/// Terminal progress line: "[done/total] ok=N failed=N eta=…s", redrawn
/// in place on stderr from the pool's on_attempt callbacks. Inactive
/// (zero output) when stderr is not a TTY or --quiet is set; either way
/// every completion is also logged at debug level for non-interactive
/// observability.
class Progress {
 public:
  Progress(size_t total, bool interactive)
      : total_(total),
        interactive_(interactive),
        t0_(std::chrono::steady_clock::now()) {}

  void on_attempt(const AttemptEvent& e, const std::string& job_name) {
    const std::lock_guard<std::mutex> lock(mu_);
    smt::log::debug("attempt finished",
                    {{"job", job_name},
                     {"worker", e.worker},
                     {"status", smt::host::name(e.status)},
                     {"wall_ms", e.end_ms - e.begin_ms}});
    ++done_;
    if (e.status != JobStatus::kOk) ++failed_;
    redraw();
  }

  /// Clears the line so the final summary starts on a clean row.
  void finish() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (interactive_ && drew_) std::fputs("\r\033[K", stderr);
  }

 private:
  void redraw() {
    if (!interactive_) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    const double eta =
        done_ == 0 ? 0.0
                   : elapsed / static_cast<double>(done_) *
                         static_cast<double>(total_ - done_);
    std::fprintf(stderr, "\r\033[K[%zu/%zu] ok=%zu failed=%zu eta=%.1fs",
                 done_, total_, done_ - failed_, failed_, eta);
    std::fflush(stderr);
    drew_ = true;
  }

  const size_t total_;
  const bool interactive_;
  const std::chrono::steady_clock::time_point t0_;
  std::mutex mu_;
  size_t done_ = 0;
  size_t failed_ = 0;
  bool drew_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opt;
  if (!parse_args(argc, argv, &opt)) return usage(argv[0]);
  if (opt.quiet) smt::log::set_level(smt::log::Level::kError);

  if (opt.list) {
    for (const ExperimentDef& d : smt::host::experiments()) {
      std::printf("%-30s %s\n", d.name.c_str(), d.manifest.c_str());
    }
    return 0;
  }

  // Assemble the job list: explicit names, then the named manifest; the
  // default manifest when neither is given.
  std::vector<std::string> manifest = opt.names;
  if (!opt.manifest.empty()) {
    const std::vector<std::string> named = smt::host::manifest(opt.manifest);
    manifest.insert(manifest.end(), named.begin(), named.end());
  }
  if (manifest.empty()) manifest = smt::host::manifest("default");

  // Resolve every name up front so a typo fails loudly before any work.
  // Index entries are preallocated, one per manifest slot; each is
  // written only by its own job's worker until the pool returns.
  std::vector<const ExperimentDef*> defs;
  smt::host::SweepIndex index;
  index.workers = opt.jobs;
  index.job_timeout_ms = opt.timeout_ms;
  bool unknown = false;
  for (const std::string& name : manifest) {
    const ExperimentDef* d = smt::host::find_experiment(name);
    if (d == nullptr) {
      smt::log::error("unknown experiment", {{"name", name}});
      unknown = true;
    }
    defs.push_back(d);
    index.jobs.emplace_back().name = name;
  }
  if (unknown) return kExitUsage;

  std::optional<smt::host::ResultStore> cache;
  if (!opt.cache_dir.empty()) cache.emplace(opt.cache_dir);

  smt::host::MetricsRegistry metrics;
  CacheCounters cache_counters(metrics);

  // --lint: the static pre-run gate. A job with any error-severity
  // diagnostic is withheld from the pool entirely; its diagnostics go to
  // stderr and its manifest slot becomes a "lint_failed" index entry.
  if (opt.lint) {
    for (size_t i = 0; i < defs.size(); ++i) {
      const ExperimentDef& def = *defs[i];
      const smt::host::WorkloadLint lint =
          smt::host::lint_workload(*def.make());
      size_t errors = 0;
      for (size_t pi = 0; pi < lint.programs.size(); ++pi) {
        errors += smt::analysis::count_severity(
            lint.diags[pi], smt::analysis::Severity::kError);
        if (!lint.diags[pi].empty()) {
          std::fputs(smt::analysis::format_diagnostics(lint.programs[pi],
                                                       lint.diags[pi])
                         .c_str(),
                     stderr);
        }
      }
      if (errors > 0) {
        index.jobs[i].outcome = "lint_failed";
        index.jobs[i].message =
            std::to_string(errors) + " lint error(s); job not simulated";
        smt::log::error("lint gate failed", {{"job", def.name},
                                             {"errors", errors}});
      }
    }
  }

  // The jobs that survived the lint gate, in claim order (longest
  // baseline first; see the header), so a long job listed last does not
  // start last and run alone at the end. No artifact depends on it: each
  // job writes its own manifest slot, and submit[k] maps the pool's job
  // index k back to that slot.
  std::vector<size_t> submit;
  std::vector<std::optional<double>> estimates;
  size_t estimated = 0;  // logged: a config-hash drift shows as a shortfall
  for (size_t i = 0; i < manifest.size(); ++i) {
    if (index.jobs[i].outcome == "lint_failed") continue;  // never simulated
    submit.push_back(i);
    estimates.push_back(smt::host::baseline_cycles(
        smt::host::kHistoryDir, defs[i]->name,
        smt::host::history_config_hash(defs[i]->config)));
    estimated += estimates.back().has_value() ? 1 : 0;
  }
  {
    std::vector<size_t> claim_order;
    for (const size_t k : smt::host::longest_first(estimates)) {
      claim_order.push_back(submit[k]);
    }
    submit = std::move(claim_order);
  }

  std::vector<smt::host::Job> pool_jobs;
  for (const size_t i : submit) {
    const ExperimentDef& def = *defs[i];
    IndexEntry& rec = index.jobs[i];
    // --cache-verify's sample: the first N jobs in claim order, fixed
    // here rather than by which worker reaches its lookup first.
    const bool audit = opt.cache_verify != -1 &&
                       static_cast<long>(pool_jobs.size()) < opt.cache_verify;
    smt::host::Job& job = pool_jobs.emplace_back();
    const std::string key = smt::sanitize_artifact_key(def.name);
    rec.report = "reports/" + key + ".json";
    const std::string report_path = opt.out_dir + "/" + rec.report;
    const std::string dump_rel = "dumps/" + key + ".dump.json";
    const std::string dump_path = opt.out_dir + "/" + dump_rel;
    const std::string kanata_path =
        opt.out_dir + "/pipeview/" + key + ".kanata";
    const std::string trace_path =
        opt.out_dir + "/traces/" + key + ".trace.json";

    job.name = def.name;
    job.fn = [&, audit, report_path, dump_rel, dump_path, kanata_path,
              trace_path](const smt::host::CancelToken& token,
                          std::string* message) {
      smt::core::RunOptions ro;
      ro.race_detect = def.race_detect;
      ro.flight_recorder = true;
      ro.telemetry = opt.instruments;
      ro.until_first_done = def.until_first_done;
      // Content key: everything this job's artifacts can depend on. Also
      // computed for cache-less sweeps so the index always carries the
      // job's content address (and stays byte-identical to a cached
      // run's, modulo the "cached" field).
      const smt::host::ResultKey content_key =
          smt::host::result_key(def, def.config, def.cycle_budget, ro);
      rec.key = content_key.hash();

      // The pool status the entry's outcome stands for.
      const auto status = [&] {
        if (rec.ok()) return JobStatus::kOk;
        *message = rec.message.empty() ? rec.outcome : rec.message;
        return rec.outcome == "timeout" ? JobStatus::kTimeout
                                        : JobStatus::kFailed;
      };
      // The one artifact-materialisation path (cache hit, --cache-verify
      // divergence, fresh simulation): writes the report and any dump and
      // fills the entry from `r`, so the index only ever names a dump
      // this job wrote. An unwritable report fails the job.
      const auto materialize = [&](const smt::host::CachedResult& r,
                                   bool cached) {
        rec.outcome = r.outcome;
        rec.message = r.message;
        rec.cycles = r.cycles;
        rec.verified = r.verified;
        rec.cached = cached;
        rec.dump.clear();
        if (!smt::write_text_file(report_path, r.report_json)) {
          rec.outcome = "report_write_failed";
          rec.message = "could not write report " + report_path;
        } else if (!r.dump_json.empty()) {
          if (smt::write_text_file(dump_path, r.dump_json)) {
            rec.dump = dump_rel;
          } else {
            std::fprintf(stderr, "warning: could not write dump %s\n",
                         dump_path.c_str());
          }
        }
        return status();
      };
      // One deterministic simulation of this job: the report bytes are
      // fully determined by the content key (the determinism contract
      // the cache relies on and --cache-verify audits). The Kanata and
      // Chrome traces are never cached, so they are written here, not
      // materialized.
      const auto simulate = [&] {
        const std::unique_ptr<smt::core::Workload> w = def.make();
        const smt::core::RunOutcome o = smt::core::try_run_workload(
            def.config, *w, def.cycle_budget,
            [&token] { return token.expired(); }, ro);
        if (o.stats.pipeview != nullptr &&
            !smt::trace::write_kanata_file(*o.stats.pipeview, kanata_path)) {
          std::fprintf(stderr, "warning: could not write pipeview %s\n",
                       kanata_path.c_str());
        }
        if (o.stats.telemetry != nullptr &&
            !smt::trace::write_chrome_trace_file(*o.stats.telemetry,
                                                 trace_path)) {
          std::fprintf(stderr, "warning: could not write trace %s\n",
                       trace_path.c_str());
        }
        const bool timeout = o.status == smt::core::RunStatus::kCancelled;
        return smt::host::CachedResult{
            .outcome = timeout ? "timeout" : smt::core::name(o.status),
            .message = timeout ? "wall-clock watchdog expired" : o.message,
            .cycles = o.stats.cycles,
            .verified = o.stats.verified,
            .report_json = smt::core::RunReport::from(o.stats).to_json(),
            .dump_json = o.core_dump};
      };

      if (cache.has_value()) {
        cache_counters.lookups.inc();
        if (const std::optional<smt::host::CachedResult> hit =
                cache->load(content_key)) {
          // Determinism audit: re-simulate a sample of hits and demand
          // byte-identical artifacts before trusting the cache.
          if (audit) {
            smt::host::CachedResult fresh = simulate();
            if (fresh.report_json != hit->report_json ||
                fresh.dump_json != hit->dump_json) {
              cache_counters.verify_failed.inc();
              fresh.outcome = "cache_verify_failed";
              fresh.message =
                  "cached artifacts diverge from re-simulation (key " +
                  rec.key + ")";
              return materialize(fresh, /*cached=*/false);
            }
            cache_counters.verified.inc();
            smt::log::info("cache hit verified", {{"job", def.name}});
          }
          cache_counters.hits.inc();
          return materialize(*hit, /*cached=*/true);
        }
        cache_counters.misses.inc();
      }

      // Even a failed run leaves a valid partial report, so the surviving
      // measurements of a broken sweep are never lost.
      const smt::host::CachedResult r = simulate();
      const JobStatus st = materialize(r, /*cached=*/false);
      // Completed deterministic outcomes populate the cache; wall-clock
      // outcomes (timeout) and failed report writes never do.
      if (cache.has_value() && smt::host::cacheable_outcome(rec.outcome) &&
          cache->store(content_key, r)) {
        cache_counters.stores.inc();
      }
      return st;
    };
  }

  smt::log::info("sweep starting",
                 {{"jobs", pool_jobs.size()},
                  {"estimated", estimated},
                  {"workers", opt.jobs},
                  {"out", opt.out_dir},
                  {"cache", opt.cache_dir}});

  std::mutex trace_mu;
  std::vector<AttemptEvent> trace_events;
  Progress progress(pool_jobs.size(),
                    !opt.quiet && isatty(fileno(stderr)) != 0);

  smt::host::JobPoolConfig pool;
  pool.workers = opt.jobs;
  pool.job_timeout = std::chrono::milliseconds(opt.timeout_ms);
  pool.metrics = &metrics;
  const bool want_trace = !opt.trace_path.empty();
  pool.on_attempt = [&](const AttemptEvent& e) {
    if (want_trace) {
      const std::lock_guard<std::mutex> lock(trace_mu);
      trace_events.push_back(e);
    }
    progress.on_attempt(e, index.jobs[submit[e.job]].name);
  };

  // Pool results scattered back to manifest slots: the pool runs every
  // job it is given exactly once; lint-failed slots keep attempts == 0.
  {
    const std::vector<smt::host::JobResult> pool_results =
        smt::host::run_jobs(pool, pool_jobs);
    for (size_t k = 0; k < pool_results.size(); ++k) {
      IndexEntry& e = index.jobs[submit[k]];
      e.attempts = 1;
      e.wall_ms = pool_results[k].wall_ms;
    }
  }
  progress.finish();
  const int failed = index.failed();

  // Artifact writes: the index is the sweep's primary output; metrics
  // and trace are wall-clock observability artifacts in separate files
  // (reports/index stay byte-identical whatever these options are).
  const std::string index_path =
      opt.out_dir + "/" + smt::host::kSweepIndexFile;
  if (!smt::write_text_file(index_path, index.to_json())) return kExitIo;
  const smt::host::SweepReuse reuse{
      !opt.cache_dir.empty(),
      opt.cache_verify == -1 ? 0 : static_cast<int64_t>(opt.cache_verify)};
  if (!opt.metrics_path.empty() &&
      !smt::write_text_file(
          opt.metrics_path,
          smt::host::sweep_metrics_json(metrics, index, reuse))) {
    return kExitIo;
  }
  if (want_trace) {
    // Trace events carry pool-job indices, so the name table is the
    // submitted (post-lint-gate) job list.
    std::vector<std::string> job_names;
    for (const smt::host::Job& job : pool_jobs) job_names.push_back(job.name);
    if (!smt::host::write_sweep_trace_file(
            std::move(trace_events), job_names,
            std::min<int>(opt.jobs, static_cast<int>(submit.size())),
            opt.trace_path)) {
      return kExitIo;
    }
  }

  std::printf("%zu job(s), %d failed; index: %s\n", index.jobs.size(),
              failed, index_path.c_str());
  if (failed > 0) {
    for (const IndexEntry& e : index.jobs) {
      if (!e.ok()) {
        smt::log::error("job failed", {{"job", e.name},
                                       {"outcome", e.outcome},
                                       {"message", e.message},
                                       {"attempts", e.attempts}});
      }
    }
    return kExitJobFailures;
  }
  return 0;
}
