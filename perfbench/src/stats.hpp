// Order statistics used to summarise repeated timings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/status.hpp"

namespace perfbench {

/// p-th percentile (p in [0, 100]) with linear interpolation between the
/// two closest ranks (the "linear" definition of NumPy and R type 7).
inline double Percentile(std::vector<double> values, double p) {
  PSRA_REQUIRE(!values.empty(), "percentile of an empty sample");
  PSRA_REQUIRE(p >= 0.0 && p <= 100.0, "percentile outside [0, 100]");
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// The n-1 cut points dividing `values` into n equal-probability intervals,
/// computed exactly as Python's statistics.quantiles(values, n=n) does with
/// its default 'exclusive' method. Needs at least two values.
inline std::vector<double> Quantiles(std::vector<double> values, int n) {
  PSRA_REQUIRE(n >= 1, "quantiles need n >= 1");
  PSRA_REQUIRE(values.size() >= 2, "quantiles need at least two values");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((values[static_cast<std::size_t>(j - 1)] *
                        static_cast<double>(n - delta) +
                    values[static_cast<std::size_t>(j)] *
                        static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

/// Interquartile distance as a share of the median: (Q3 - Q1) / median.
inline double QuartileSpread(const std::vector<double>& values) {
  const auto q = Quantiles(values, 4);
  return (q[2] - q[0]) / q[1];
}

}  // namespace perfbench
