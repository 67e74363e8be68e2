// Scalar references for the four-lane BLAS-1 kernels (DESIGN.md "FP
// determinism"). Element i accumulates into lane i % 4, written out as four
// named scalars; the tail continues lane 0 and the lanes fold as
// (a0 + a1) + (a2 + a3). These are the kernels as they were before the
// library wrote them with vector types, and the library must match them bit
// for bit.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

namespace psra::testref {

/// The bit pattern of a double, for comparisons that must be exact (also
/// telling -0.0 from 0.0).
inline std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

inline double Dot4(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = x.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) a0 += x[i] * y[i];
  return (a0 + a1) + (a2 + a3);
}

inline double Norm2_4(std::span<const double> x) {
  return std::sqrt(Dot4(x, x));
}

inline double DistanceL2_4(std::span<const double> x,
                           std::span<const double> y) {
  const std::size_t n = x.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    a0 += d * d;
  }
  return std::sqrt((a0 + a1) + (a2 + a3));
}

/// y += alpha * x, returning ||y||^2.
inline double AxpyNormSq4(double alpha, std::span<const double> x,
                          std::span<double> y) {
  const std::size_t n = x.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double t0 = y[i] + alpha * x[i];
    const double t1 = y[i + 1] + alpha * x[i + 1];
    const double t2 = y[i + 2] + alpha * x[i + 2];
    const double t3 = y[i + 3] + alpha * x[i + 3];
    y[i] = t0;
    y[i + 1] = t1;
    y[i + 2] = t2;
    y[i + 3] = t3;
    a0 += t0 * t0;
    a1 += t1 * t1;
    a2 += t2 * t2;
    a3 += t3 * t3;
  }
  for (; i < n; ++i) {
    const double t = y[i] + alpha * x[i];
    y[i] = t;
    a0 += t * t;
  }
  return (a0 + a1) + (a2 + a3);
}

/// y = x + beta * y, returning ||y||^2.
inline double XpayNormSq4(double beta, std::span<const double> x,
                          std::span<double> y) {
  const std::size_t n = x.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double t0 = x[i] + beta * y[i];
    const double t1 = x[i + 1] + beta * y[i + 1];
    const double t2 = x[i + 2] + beta * y[i + 2];
    const double t3 = x[i + 3] + beta * y[i + 3];
    y[i] = t0;
    y[i + 1] = t1;
    y[i + 2] = t2;
    y[i + 3] = t3;
    a0 += t0 * t0;
    a1 += t1 * t1;
    a2 += t2 * t2;
    a3 += t3 * t3;
  }
  for (; i < n; ++i) {
    const double t = x[i] + beta * y[i];
    y[i] = t;
    a0 += t * t;
  }
  return (a0 + a1) + (a2 + a3);
}

/// dst = src, returning ||v||^2.
inline double CopyNormSq4(std::span<const double> src, std::span<double> dst,
                          std::span<const double> v) {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
  return Dot4(v, v);
}

}  // namespace psra::testref
