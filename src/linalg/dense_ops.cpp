#include "linalg/dense_ops.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lane4.hpp"
#include "support/status.hpp"

namespace psra::linalg {

namespace {

/// sum_i v_i^2 in the four-lane order (the body of Norm2 and CopyNormSq).
double SquaredSum4(const double* v, std::size_t n) {
  Lane4 acc = {}, vv = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Load4(vv, v + i);
    acc += vv * vv;
  }
  double a0 = acc[0];
  for (; i < n; ++i) a0 += v[i] * v[i];
  return Fold4(acc, a0);
}

}  // namespace

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double AxpyNormSq(double alpha, std::span<const double> x,
                  std::span<double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "axpy-normsq dimension mismatch");
  const std::size_t n = x.size();
  Lane4 acc = {}, xv = {}, t = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Load4(xv, x.data() + i);
    Load4(t, y.data() + i);
    t = t + alpha * xv;
    Store4(y.data() + i, t);
    acc += t * t;
  }
  double a0 = acc[0];
  for (; i < n; ++i) {
    const double ti = y[i] + alpha * x[i];
    y[i] = ti;
    a0 += ti * ti;
  }
  return Fold4(acc, a0);
}

void DualAxpyNormSq(double alpha, std::span<const double> p,
                    std::span<double> s, std::span<const double> q,
                    std::span<const double> r, std::span<double> r_out,
                    double& ss, double& rr) {
  PSRA_REQUIRE(p.size() == s.size() && p.size() == q.size() &&
                   p.size() == r.size() && p.size() == r_out.size(),
               "dual-axpy-normsq dimension mismatch");
  const std::size_t n = p.size();
  const double nalpha = -alpha;
  Lane4 acc_s = {}, acc_r = {}, pv = {}, qv = {}, sv = {}, rv = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Load4(pv, p.data() + i);
    Load4(sv, s.data() + i);
    sv = sv + alpha * pv;
    Store4(s.data() + i, sv);
    acc_s += sv * sv;
    Load4(qv, q.data() + i);
    Load4(rv, r.data() + i);
    rv = rv + nalpha * qv;
    Store4(r_out.data() + i, rv);
    acc_r += rv * rv;
  }
  double s0 = acc_s[0], r0 = acc_r[0];
  for (; i < n; ++i) {
    const double si = s[i] + alpha * p[i];
    s[i] = si;
    s0 += si * si;
    const double ri = r[i] + nalpha * q[i];
    r_out[i] = ri;
    r0 += ri * ri;
  }
  ss = Fold4(acc_s, s0);
  rr = Fold4(acc_r, r0);
}

double XpayNormSq(double beta, std::span<const double> x, std::span<double> y,
                  double scale, std::span<double> scaled) {
  PSRA_REQUIRE(x.size() == y.size() && x.size() == scaled.size(),
               "xpay-normsq dimension mismatch");
  const std::size_t n = x.size();
  Lane4 acc = {}, xv = {}, t = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Load4(xv, x.data() + i);
    Load4(t, y.data() + i);
    t = xv + beta * t;
    Store4(y.data() + i, t);
    Store4(scaled.data() + i, scale * t);
    acc += t * t;
  }
  double a0 = acc[0];
  for (; i < n; ++i) {
    const double ti = x[i] + beta * y[i];
    y[i] = ti;
    scaled[i] = scale * ti;
    a0 += ti * ti;
  }
  return Fold4(acc, a0);
}

double CopyNormSq(std::span<const double> src, std::span<double> dst,
                  std::span<const double> v) {
  PSRA_REQUIRE(src.size() == dst.size() && src.size() == v.size(),
               "copy-normsq dimension mismatch");
  const std::size_t n = src.size();
  std::copy(src.begin(), src.end(), dst.begin());
  return SquaredSum4(v.data(), n);
}

void Gemv(std::span<const double> a, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<double> y) {
  PSRA_REQUIRE(a.size() == rows * cols, "gemv matrix size mismatch");
  PSRA_REQUIRE(x.size() == cols && y.size() == rows,
               "gemv vector size mismatch");
  std::size_t r = 0;
  // Four rows in lockstep: eight independent accumulator chains (two per
  // row) hide FP-add latency while x is read once per block.
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a.data() + r * cols;
    const double* a1 = a0 + cols;
    const double* a2 = a1 + cols;
    const double* a3 = a2 + cols;
    double s00 = 0.0, s01 = 0.0, s10 = 0.0, s11 = 0.0;
    double s20 = 0.0, s21 = 0.0, s30 = 0.0, s31 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= cols; j += 2) {
      const double x0 = x[j];
      const double x1 = x[j + 1];
      s00 += a0[j] * x0;
      s01 += a0[j + 1] * x1;
      s10 += a1[j] * x0;
      s11 += a1[j + 1] * x1;
      s20 += a2[j] * x0;
      s21 += a2[j + 1] * x1;
      s30 += a3[j] * x0;
      s31 += a3[j + 1] * x1;
    }
    for (; j < cols; ++j) {
      const double xj = x[j];
      s00 += a0[j] * xj;
      s10 += a1[j] * xj;
      s20 += a2[j] * xj;
      s30 += a3[j] * xj;
    }
    y[r] = s00 + s01;
    y[r + 1] = s10 + s11;
    y[r + 2] = s20 + s21;
    y[r + 3] = s30 + s31;
  }
  for (; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    double s0 = 0.0, s1 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= cols; j += 2) {
      s0 += row[j] * x[j];
      s1 += row[j + 1] * x[j + 1];
    }
    for (; j < cols; ++j) s0 += row[j] * x[j];
    y[r] = s0 + s1;
  }
}

void GemvT(std::span<const double> a, std::size_t rows, std::size_t cols,
           std::span<const double> x, std::span<double> y) {
  PSRA_REQUIRE(a.size() == rows * cols, "gemv-t matrix size mismatch");
  PSRA_REQUIRE(x.size() == rows && y.size() == cols,
               "gemv-t vector size mismatch");
  SetZero(y);
  std::size_t r = 0;
  // Four rows per sweep: each output element receives one pairwise-combined
  // contribution per block, a fixed function of the row index, so the
  // result is deterministic.
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a.data() + r * cols;
    const double* a1 = a0 + cols;
    const double* a2 = a1 + cols;
    const double* a3 = a2 + cols;
    const double x0 = x[r];
    const double x1 = x[r + 1];
    const double x2 = x[r + 2];
    const double x3 = x[r + 3];
    for (std::size_t j = 0; j < cols; ++j) {
      y[j] += (x0 * a0[j] + x1 * a1[j]) + (x2 * a2[j] + x3 * a3[j]);
    }
  }
  for (; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    const double xr = x[r];
    for (std::size_t j = 0; j < cols; ++j) y[j] += xr * row[j];
  }
}

// Dot/Norm2/DistanceL2 accumulate in four independent lanes: a single
// accumulator serializes on floating-point add latency, which makes these
// reductions ~4x slower than the loads themselves. The lane assignment is a
// fixed function of the element index, so the result is deterministic (it is
// just a different — equally valid — summation order).
double Dot(std::span<const double> x, std::span<const double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "dot dimension mismatch");
  const std::size_t n = x.size();
  Lane4 acc = {}, xv = {}, yv = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Load4(xv, x.data() + i);
    Load4(yv, y.data() + i);
    acc += xv * yv;
  }
  double a0 = acc[0];
  for (; i < n; ++i) a0 += x[i] * y[i];
  return Fold4(acc, a0);
}

double Norm2(std::span<const double> x) {
  return std::sqrt(SquaredSum4(x.data(), x.size()));
}

double Norm1(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += std::fabs(v);
  return acc;
}

double NormInf(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc = std::max(acc, std::fabs(v));
  return acc;
}

double DistanceL2(std::span<const double> x, std::span<const double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "distance dimension mismatch");
  const std::size_t n = x.size();
  Lane4 acc = {}, xv = {}, yv = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Load4(xv, x.data() + i);
    Load4(yv, y.data() + i);
    const Lane4 dv = xv - yv;
    acc += dv * dv;
  }
  double a0 = acc[0];
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    a0 += d * d;
  }
  return std::sqrt(Fold4(acc, a0));
}

void Add(std::span<const double> x, std::span<const double> y,
         DenseVector& out) {
  PSRA_REQUIRE(x.size() == y.size(), "add dimension mismatch");
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
}

void Subtract(std::span<const double> x, std::span<const double> y,
              DenseVector& out) {
  PSRA_REQUIRE(x.size() == y.size(), "subtract dimension mismatch");
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
}

void SetZero(std::span<double> x) { std::fill(x.begin(), x.end(), 0.0); }

void SoftThreshold(std::span<const double> x, double kappa,
                   std::span<double> out) {
  PSRA_REQUIRE(x.size() == out.size(), "soft-threshold dimension mismatch");
  PSRA_REQUIRE(kappa >= 0.0, "soft-threshold kappa must be non-negative");
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    if (v > kappa) {
      out[i] = v - kappa;
    } else if (v < -kappa) {
      out[i] = v + kappa;
    } else {
      out[i] = 0.0;
    }
  }
}

void RoundToFloat(std::span<double> x) {
  for (double& v : x) v = static_cast<double>(static_cast<float>(v));
}

std::size_t CountNonzeros(std::span<const double> x, double tol) {
  std::size_t n = 0;
  for (double v : x) {
    if (std::fabs(v) > tol) ++n;
  }
  return n;
}

}  // namespace psra::linalg
