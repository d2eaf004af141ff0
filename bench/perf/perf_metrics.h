// The benchmark's contract and the sample statistics sim_perf's run and
// compare modes share. The contract — run length, workload names, and each
// metric's name, unit, direction and bound — lives only in BENCHMARK.json
// at the repository root; sim_perf reads it from there, prints and writes
// exactly the metrics it lists, and counts a run that measured any other
// set as failed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace smt::perf {

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  /// End-to-end metrics: the largest tolerated worsening of the median, as
  /// a share of the baseline median. Per-layer metrics have none (0).
  double bound = 0;
};

struct Spec {
  /// Measuring budget of one run, in seconds.
  double run_seconds = 0;
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

/// Reads the contract from the BENCHMARK.json at `path`; on a missing,
/// malformed or incomplete file, returns nullopt and sets `error`.
std::optional<Spec> load_spec(const std::string& path, std::string* error);

/// Order statistics of one metric's samples. Quartiles follow Python's
/// statistics.quantiles(n=4) default ("exclusive") method, so the spread
/// printed here is the one Python computes from the same data.
struct Summary {
  size_t n = 0;
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // Exclusive method: the i-th cut point sits at position i*(n+1)/4; near
  // the ends of small samples it extrapolates past min/max, as Python does.
  const auto cut = [&v, n](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

/// Quartile spread as a share of the median.
inline double spread(const Summary& s) { return (s.q3 - s.q1) / s.median; }

}  // namespace smt::perf
