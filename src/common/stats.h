// Small numeric helpers used by the kernel verifiers.
#pragma once

#include <algorithm>
#include <cmath>

namespace smt {

/// Ratio helper that tolerates zero denominators (reported as 0).
inline double safe_ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Relative error |a-b| / max(|a|,|b|,eps); used by kernel verifiers.
inline double rel_err(double a, double b) {
  const double scale =
      std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

}  // namespace smt
