// Validates the artifacts a sweep or a tool wrote:
//
//   $ check_reports <report-dir> [trace-dir] [--dumps <dir>]
//                   [--metrics <metrics.json> --index <sweep_index.json>]
//                   [--lint-report <file>]
//
// A CLI over the validator beside each format's writer: run reports
// (*.json in <report-dir>, not *.trace.json) through core::check_run_report,
// Chrome traces (*.trace.json in <trace-dir>) through
// trace::check_chrome_trace, core dumps (*.json in --dumps) through
// core::check_core_dump, the sweep index through host::parse_sweep_index
// and then the metrics against it through host::check_sweep_metrics
// (--metrics and --index always come together), and a lint report
// through host::check_lint_report.
//
// Findings are printed as plain "<path>: <finding>" stderr lines (they
// are the tool's product); operational failures (unreadable paths, bad
// usage) go through the structured logger. Exit status: 0 ok; 1 any
// finding (or an empty scan); 2 usage error; 3 I/O error (an unreadable
// path or artifact; outranks findings).
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "core/flight_recorder.h"
#include "core/report_check.h"
#include "host/experiments.h"
#include "host/metrics.h"
#include "host/sweep_index.h"
#include "trace/chrome_trace.h"

namespace fs = std::filesystem;

namespace {

// Prints each finding with the path prefix; true when there are none.
bool report(const fs::path& path, const std::optional<std::string>& finding) {
  if (finding.has_value())
    std::fprintf(stderr, "%s: %s\n", path.c_str(), finding->c_str());
  return !finding.has_value();
}
bool report(const fs::path& path, const std::vector<std::string>& findings) {
  for (const std::string& f : findings) report(path, f);
  return findings.empty();
}

// The JSON object at `path`: unreadable is an I/O error, not JSON a finding.
std::optional<smt::JsonValue> load(const fs::path& path, bool* io_error) {
  bool unreadable = false;
  std::optional<smt::JsonValue> v =
      smt::read_json_object(path.string(), &unreadable);
  if (unreadable) *io_error = true;
  if (!v.has_value() && !unreadable)
    report(path, std::string("does not parse as a JSON object"));
  return v;
}

template <typename Check>
bool check_file(const fs::path& path, Check check, bool* io_error) {
  const std::optional<smt::JsonValue> v = load(path, io_error);
  return v.has_value() && report(path, check(*v));
}

bool check_metrics(const fs::path& metrics_path, const fs::path& index_path,
                   bool* io_error) {
  const std::optional<smt::JsonValue> metrics = load(metrics_path, io_error);
  const std::optional<std::string> index_text =
      smt::read_text_file(index_path.string());
  if (!index_text.has_value()) {
    smt::log::error("cannot read", {{"path", index_path.string()}});
    *io_error = true;
  }
  if (!metrics.has_value() || !index_text.has_value()) return false;
  smt::host::SweepIndex index;
  if (const auto finding = smt::host::parse_sweep_index(*index_text, &index)) {
    return report(index_path, finding);
  }
  return report(metrics_path, smt::host::check_sweep_metrics(*metrics, index));
}

// Checks every `suffix` file in `dir` (minus *.trace.json if
// `skip_traces`) and prints the tally; returns the exit code that ends the
// run early: 3 when `dir` is no directory, 1 when it holds no artifact.
template <typename Check>
std::optional<int> scan(const fs::path& dir, const char* suffix,
                        bool skip_traces, const char* noun,
                        const char* artifact, Check check, int* bad,
                        bool* io_error) {
  if (!fs::is_directory(dir)) {
    smt::log::error("not a directory", {{"path", dir.string()}});
    return 3;
  }
  int checked = 0, dir_bad = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(suffix) ||
        (skip_traces && name.ends_with(".trace.json")))
      continue;
    ++checked;
    if (!check_file(entry.path(), check, io_error)) ++dir_bad;
  }
  if (checked == 0) {
    std::fprintf(stderr, "%s: no %s artifacts found\n", dir.c_str(),
                 artifact);
    return 1;
  }
  std::printf("%d %s(s) checked, %d bad\n", checked, noun, dir_bad);
  *bad += dir_bad;
  return std::nullopt;
}

// A single-file check: prints `ok_line` when it passed, else counts it bad.
void tally(bool ok, const char* ok_line, int* bad) {
  if (ok) std::puts(ok_line);
  if (!ok) ++*bad;
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
  std::optional<int> early;
  if (!dirs.empty() &&
      (early = scan(dirs[0], ".json", /*skip_traces=*/true, "report",
                    "report", smt::core::check_run_report, &bad, &io_error)))
    return *early;
  if (dirs.size() == 2 &&
      (early = scan(dirs[1], ".trace.json", /*skip_traces=*/false, "trace",
                    "trace", smt::trace::check_chrome_trace, &bad,
                    &io_error)))
    return *early;
  if (!metrics_file.empty()) {
    tally(check_metrics(metrics_file, index_file, &io_error),
          "metrics snapshot consistent with sweep index", &bad);
  }
  if (!dumps_dir.empty() &&
      (early = scan(dumps_dir, ".json", /*skip_traces=*/false, "dump",
                    "core-dump", smt::core::check_core_dump, &bad,
                    &io_error)))
    return *early;
  if (!lint_report_file.empty()) {
    tally(check_file(lint_report_file, smt::host::check_lint_report,
                     &io_error),
          "lint report valid", &bad);
  }
  if (io_error) return 3;
  return bad == 0 ? 0 : 1;
}
