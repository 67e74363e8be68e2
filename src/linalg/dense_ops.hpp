// Dense vector kernels.
//
// DenseVector is a plain std::vector<double>; these free functions provide the
// BLAS-1 style operations the solvers and collectives need. All functions
// validate dimensions via PSRA_REQUIRE.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace psra::linalg {

using DenseVector = std::vector<double>;

/// y += alpha * x
void Axpy(double alpha, std::span<const double> x, std::span<double> y);

// Fused BLAS-1 kernels (DESIGN.md §14). Each combines an update with the
// reduction the solver needs next, so the vector is streamed once instead of
// twice. All reductions use the same four-lane accumulator order as Dot
// (DESIGN.md "FP determinism"), so results are deterministic and identical
// to an update-then-Dot pair.

/// y += alpha * x, returning ||y||^2 (four-lane order).
double AxpyNormSq(double alpha, std::span<const double> x,
                  std::span<double> y);

/// The truncated-CG step in one pass: s += alpha * p and
/// r_out = r - alpha * q, with ss = ||s||^2 and rr = ||r_out||^2 (four-lane
/// order). r is left untouched, so a caller that rejects the step still has
/// it. r_out must not alias r.
void DualAxpyNormSq(double alpha, std::span<const double> p,
                    std::span<double> s, std::span<const double> q,
                    std::span<const double> r, std::span<double> r_out,
                    double& ss, double& rr);

/// y = x + beta * y and scaled = scale * y (the new y), returning ||y||^2
/// (four-lane order). This is the CG direction update p = r + beta p, which
/// also seeds the next Hessian product's rho * p term.
double XpayNormSq(double beta, std::span<const double> x, std::span<double> y,
                  double scale, std::span<double> scaled);

/// dst = src, plus ||v||^2 over a third vector (four-lane order).
/// TRON's accept-copy: x = x_new while re-measuring the new gradient norm.
double CopyNormSq(std::span<const double> src, std::span<double> dst,
                  std::span<const double> v);

// Register-blocked dense matrix kernels over row-major storage. Four rows
// travel together so the FP adds of independent rows overlap; within each
// row the accumulation order is the canonical four-lane order, making both
// kernels deterministic.

/// y = A x for row-major A (rows x cols).
void Gemv(std::span<const double> a, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<double> y);

/// y = A^T x for row-major A (rows x cols); y has cols entries.
void GemvT(std::span<const double> a, std::size_t rows, std::size_t cols,
           std::span<const double> x, std::span<double> y);

/// x *= alpha
void Scale(double alpha, std::span<double> x);

/// <x, y>
double Dot(std::span<const double> x, std::span<const double> y);

/// ||x||_2
double Norm2(std::span<const double> x);

/// ||x||_1
double Norm1(std::span<const double> x);

/// max_i |x_i|
double NormInf(std::span<const double> x);

/// ||x - y||_2
double DistanceL2(std::span<const double> x, std::span<const double> y);

/// out = x + y (resizes out)
void Add(std::span<const double> x, std::span<const double> y,
         DenseVector& out);

/// out = x - y (resizes out)
void Subtract(std::span<const double> x, std::span<const double> y,
              DenseVector& out);

/// x := 0
void SetZero(std::span<double> x);

/// Elementwise soft-threshold: out_i = sign(x_i) * max(|x_i| - kappa, 0).
/// This is the proximal operator of kappa * ||.||_1.
void SoftThreshold(std::span<const double> x, double kappa,
                   std::span<double> out);

/// Number of entries with |x_i| > tol.
std::size_t CountNonzeros(std::span<const double> x, double tol = 0.0);

/// Rounds every entry through IEEE single precision (mixed-precision
/// communication: values are transmitted as fp32 and widened back).
void RoundToFloat(std::span<double> x);

}  // namespace psra::linalg
