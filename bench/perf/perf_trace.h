// Span recorder for sim_perf's traced runs. A span brackets one call into a
// layer's public API from the benchmark's own code (nothing inside the
// simulator is instrumented); spans stay in memory and are written once,
// as a Chrome trace-event document, when the run ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace smt::perf {

class Tracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<call>", e.g. "cpu.try_run"
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    long parent = -1;  // index of the enclosing span, -1 at top level
    int job = -1;      // index of the job the span belongs to, -1 if none
  };

  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  size_t begin(std::string name, int job);
  void end(size_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Σ self time per layer (the name's prefix before the first '.'): a
  /// span's duration minus the part its direct children cover.
  std::map<std::string, double> self_by_layer() const;
  /// Σ self time of every span called `name`.
  double self_of(const std::string& name) const;

  /// Chrome trace-event JSON (one complete "X" event per span, times in
  /// microseconds); `jobs` names the job indices.
  std::string chrome_json(const std::vector<std::string>& jobs) const;

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  std::vector<double> self_times() const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, int job = -1)
      : t_(t), id_(t.begin(std::move(name), job)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  size_t id_;
};

}  // namespace smt::perf
