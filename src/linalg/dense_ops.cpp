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
