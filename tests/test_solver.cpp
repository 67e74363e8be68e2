// Tests for the solvers: logistic loss derivatives (checked against finite
// differences), TRON convergence, proximal z-update, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "data/synthetic.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/dense_ops.hpp"
#include "scalar_kernels.hpp"
#include "solver/logistic.hpp"
#include "solver/metrics.hpp"
#include "solver/prox.hpp"
#include "solver/tron.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::solver {
namespace {

data::Dataset SmallDataset(std::uint64_t seed = 5, std::uint64_t n = 60,
                           std::uint64_t d = 25) {
  data::SyntheticSpec spec;
  spec.num_features = d;
  spec.num_train = n;
  spec.num_test = 10;
  spec.mean_row_nnz = 6.0;
  spec.seed = seed;
  return data::GenerateSynthetic(spec).train;
}

// ------------------------------------------------------------- logistic ----

TEST(Logistic, ValueAtZeroIsNLog2) {
  const auto ds = SmallDataset();
  const linalg::DenseVector x(ds.num_features(), 0.0);
  EXPECT_NEAR(LogisticValue(ds, x),
              static_cast<double>(ds.num_samples()) * std::log(2.0), 1e-9);
}

TEST(Logistic, ValueIsFiniteForExtremeMargins) {
  const auto ds = SmallDataset();
  linalg::DenseVector x(ds.num_features(), 1e4);
  EXPECT_TRUE(std::isfinite(LogisticValue(ds, x)));
  for (auto& v : x) v = -1e4;
  EXPECT_TRUE(std::isfinite(LogisticValue(ds, x)));
}

class ProximalFixture : public ::testing::Test {
 protected:
  ProximalFixture()
      : ds_(SmallDataset()),
        f_(&ds_, 0.7),
        v_(ds_.num_features(), 0.0),
        z_(ds_.num_features(), 0.0) {
    Rng rng(3);
    for (auto& e : v_) e = 0.1 * rng.NextGaussian();
    for (auto& e : z_) e = 0.2 * rng.NextGaussian();
    f_.SetIterationTerms(v_, z_);
  }

  data::Dataset ds_;
  ProximalLogistic f_;
  linalg::DenseVector v_, z_;
};

TEST_F(ProximalFixture, GradientMatchesFiniteDifferences) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(11);
  linalg::DenseVector x(d);
  for (auto& e : x) e = 0.3 * rng.NextGaussian();

  linalg::DenseVector grad(d);
  const double val = f_.ValueAndGradient(x, grad);
  EXPECT_NEAR(val, f_.Value(x), 1e-9);

  const double h = 1e-6;
  for (std::size_t i = 0; i < d; i += 3) {  // probe a subset of coordinates
    auto xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double fd = (f_.Value(xp) - f_.Value(xm)) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-4) << "coordinate " << i;
  }
}

TEST_F(ProximalFixture, HessianVecMatchesGradientDifferences) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(13);
  linalg::DenseVector x(d), dir(d);
  for (auto& e : x) e = 0.2 * rng.NextGaussian();
  for (auto& e : dir) e = rng.NextGaussian();

  f_.PrepareHessian(x);
  linalg::DenseVector hv(d);
  f_.HessianVec(dir, hv);

  const double h = 1e-6;
  linalg::DenseVector xp = x, xm = x, gp(d), gm(d);
  linalg::Axpy(h, dir, xp);
  linalg::Axpy(-h, dir, xm);
  f_.ValueAndGradient(xp, gp);
  f_.ValueAndGradient(xm, gm);
  for (std::size_t i = 0; i < d; i += 2) {
    const double fd = (gp[i] - gm[i]) / (2 * h);
    EXPECT_NEAR(hv[i], fd, 1e-4) << "coordinate " << i;
  }
}

TEST_F(ProximalFixture, HessianIsPositiveDefiniteWithRho) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(17);
  linalg::DenseVector x(d, 0.0), dir(d), hv(d);
  for (auto& e : dir) e = rng.NextGaussian();
  f_.PrepareHessian(x);
  f_.HessianVec(dir, hv);
  // d^T H d >= rho ||d||^2
  EXPECT_GE(linalg::Dot(dir, hv), 0.7 * linalg::Dot(dir, dir) - 1e-9);
}

TEST_F(ProximalFixture, FlopCountingAccumulates) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  linalg::DenseVector x(d, 0.1), grad(d);
  FlopCounter flops;
  f_.ValueAndGradient(x, grad, &flops);
  EXPECT_GT(flops.flops, 0.0);
  const double after_grad = flops.flops;
  f_.PrepareHessian(x, &flops);
  f_.HessianVec(grad, x, &flops);
  EXPECT_GT(flops.flops, after_grad);
}

TEST(Proximal, RequiresIterationTermsBeforeUse) {
  const auto ds = SmallDataset();
  ProximalLogistic f(&ds, 1.0);
  const linalg::DenseVector x(ds.num_features(), 0.0);
  EXPECT_THROW(f.Value(x), InvalidArgument);
}

// ----------------------------------------------------------------- tron ----

TEST(Tron, SolvesSubproblemToStationarity) {
  const auto ds = SmallDataset(7);
  const double rho = 1.0;
  ProximalLogistic f(&ds, rho);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.05), z(d, 0.0);
  f.SetIterationTerms(v, z);

  linalg::DenseVector x(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-6;
  const auto res = TronMinimize(f, x, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 0);

  linalg::DenseVector grad(d);
  f.ValueAndGradient(x, grad);
  EXPECT_LT(linalg::Norm2(grad), 1e-3);
}

TEST(Tron, WorkspaceOverloadIsBitwiseIdentical) {
  const auto ds = SmallDataset(7);
  ProximalLogistic f(&ds, 1.0);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.05), z(d, 0.0);
  f.SetIterationTerms(v, z);
  TronOptions opt;
  opt.gradient_tolerance = 1e-6;

  linalg::DenseVector x_plain(d, 0.0);
  const auto res_plain = TronMinimize(f, x_plain, opt);

  // A reused (dirty) workspace must not change anything.
  TronWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    linalg::DenseVector x(d, 0.0);
    const auto res = TronMinimize(f, x, opt, nullptr, ws);
    EXPECT_EQ(x, x_plain);
    EXPECT_EQ(res.iterations, res_plain.iterations);
    EXPECT_EQ(res.cg_iterations, res_plain.cg_iterations);
    EXPECT_EQ(res.objective, res_plain.objective);
    EXPECT_EQ(res.gradient_norm, res_plain.gradient_norm);
    EXPECT_EQ(res.converged, res_plain.converged);
  }
}

TEST(Tron, ObjectiveNeverIncreases) {
  const auto ds = SmallDataset(9);
  ProximalLogistic f(&ds, 0.5);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.0), z(d, 0.1);
  f.SetIterationTerms(v, z);

  linalg::DenseVector x(d, 0.0);
  const double before = f.Value(x);
  TronOptions opt;
  opt.max_iterations = 3;  // even a truncated run must not go uphill
  TronMinimize(f, x, opt);
  EXPECT_LE(f.Value(x), before + 1e-12);
}

TEST(Tron, AlreadyOptimalReturnsImmediately) {
  const auto ds = SmallDataset(21);
  ProximalLogistic f(&ds, 1.0);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.0), z(d, 0.0);
  f.SetIterationTerms(v, z);
  linalg::DenseVector x(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-8;
  const auto r1 = TronMinimize(f, x, opt);
  ASSERT_TRUE(r1.converged);
  // Warm start: the gradient is already below an absolute threshold, so the
  // solver must return without taking a step.
  opt.absolute_tolerance = 1e-5;
  const auto r2 = TronMinimize(f, x, opt);
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r2.iterations, 0);
}

TEST(Tron, MatchesIndependentGradientDescent) {
  // Cross-check the minimizer against a slow but simple reference method.
  const auto ds = SmallDataset(15, 40, 12);
  ProximalLogistic f(&ds, 2.0);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.02), z(d, -0.05);
  f.SetIterationTerms(v, z);

  linalg::DenseVector x_tron(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-8;
  opt.max_iterations = 100;
  TronMinimize(f, x_tron, opt);

  linalg::DenseVector x_gd(d, 0.0), grad(d);
  for (int it = 0; it < 20000; ++it) {
    f.ValueAndGradient(x_gd, grad);
    linalg::Axpy(-0.05, grad, x_gd);
  }
  EXPECT_LT(linalg::DistanceL2(x_tron, x_gd), 1e-3);
}

// ----------------------------------- gram Hessian (transpose reduction) ----

TEST(GramHessian, HessianVecMatchesMatrixFreePath) {
  const auto ds = SmallDataset(27);
  const auto d = static_cast<std::size_t>(ds.num_features());
  ProximalLogistic cg_f(&ds, 0.9), gram_f(&ds, 0.9);
  gram_f.SetUseGramHessian(true);
  EXPECT_TRUE(gram_f.use_gram_hessian());
  linalg::DenseVector v(d, 0.03), z(d, -0.02);
  cg_f.SetIterationTerms(v, z);
  gram_f.SetIterationTerms(v, z);

  Rng rng(51);
  linalg::DenseVector x(d), dir(d), hv_cg(d), hv_gram(d);
  for (auto& e : x) e = 0.2 * rng.NextGaussian();
  for (auto& e : dir) e = rng.NextGaussian();

  cg_f.PrepareHessian(x);
  gram_f.PrepareHessian(x);
  cg_f.HessianVec(dir, hv_cg);
  gram_f.HessianVec(dir, hv_gram);
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(hv_gram[i], hv_cg[i], 1e-10) << "coordinate " << i;
  }

  // The fused quadratic-form variant must agree with <d, Hd> too.
  const double dd = linalg::Dot(dir, dir);
  const double quad = gram_f.HessianVecQuad(dir, dd, hv_gram);
  EXPECT_NEAR(quad, linalg::Dot(dir, hv_cg), 1e-8);
}

TEST(GramHessian, TronSolutionsAgreeAcrossHessianPaths) {
  // Same subproblem minimized through the matrix-free and the Gram Hessian:
  // the minimizer is unique (rho-strongly convex), so both must land on it.
  const auto ds = SmallDataset(29, 80, 15);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.05), z(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-8;
  opt.max_iterations = 100;

  ProximalLogistic cg_f(&ds, 1.2);
  cg_f.SetIterationTerms(v, z);
  linalg::DenseVector x_cg(d, 0.0);
  ASSERT_TRUE(TronMinimize(cg_f, x_cg, opt).converged);

  ProximalLogistic gram_f(&ds, 1.2);
  gram_f.SetUseGramHessian(true);
  gram_f.SetIterationTerms(v, z);
  linalg::DenseVector x_gram(d, 0.0);
  ASSERT_TRUE(TronMinimize(gram_f, x_gram, opt).converged);

  EXPECT_LT(linalg::DistanceL2(x_cg, x_gram), 1e-5);
}

TEST(GramHessian, FlopCountingCoversGramBuild) {
  const auto ds = SmallDataset(30);
  const auto d = static_cast<std::size_t>(ds.num_features());
  ProximalLogistic f(&ds, 1.0);
  f.SetUseGramHessian(true);
  linalg::DenseVector v(d, 0.0), z(d, 0.0);
  f.SetIterationTerms(v, z);
  linalg::DenseVector x(d, 0.1), hv(d);
  FlopCounter flops;
  f.PrepareHessian(x, &flops);
  EXPECT_GT(flops.flops, 0.0);
  const double after_prepare = flops.flops;
  f.HessianVec(x, hv, &flops);
  EXPECT_GT(flops.flops, after_prepare);
}

// The matrix-free product accumulates onto the caller's rho * d seed; with
// the seed written it is bitwise HessianVec, plus the quadratic form.
TEST_F(ProximalFixture, HessianVecQuadAccumulatesOntoSeed) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(12);
  linalg::DenseVector x(d), dir(d), hv(d), hvq(d);
  for (auto& e : x) e = 0.3 * rng.NextGaussian();
  for (auto& e : dir) e = rng.NextGaussian();
  f_.PrepareHessian(x);
  f_.HessianVec(dir, hv);
  for (std::size_t i = 0; i < d; ++i) hvq[i] = f_.rho() * dir[i];
  const double quad = f_.HessianVecQuad(dir, linalg::Dot(dir, dir), hvq);
  for (std::size_t i = 0; i < d; ++i) {
    ASSERT_EQ(testref::Bits(hvq[i]), testref::Bits(hv[i])) << "coordinate " << i;
  }
  EXPECT_NEAR(quad, linalg::Dot(dir, hv), 1e-9 * std::fabs(quad));
}

// ------------------------------- TRON against its pre-fusion loop, bitwise ----

/// What the reference loop saw, so each case can show it reached the paths
/// it is meant to cover.
struct RefPaths {
  int boundary_hits = 0;      // CG stopped on the trust-region boundary
  int negative_curvature = 0;  // ... because p^T H p <= 0
  int rejected_steps = 0;      // trial point not accepted
};

/// The TRON/CG loop as it was before its passes were fused and vectorized:
/// separate s and r updates, the direction update without the hp seed (the
/// seed pass is written out before each Hessian product, as HessianVecQuad
/// used to do it), a trial pass with its own strict-order dot chains ahead
/// of a plain ValueAndGradient. Vector kernels are the scalar references.
TronResult ReferenceTron(const ProximalLogistic& f, std::span<double> x,
                         const TronOptions& opt, FlopCounter* flops,
                         RefPaths& paths) {
  const std::size_t d = x.size();
  linalg::DenseVector grad(d), grad_new(d), x_new(d), s(d), r(d), p(d), hp(d);
  TronResult res;
  double value = f.ValueAndGradient(x, grad, flops);
  double gg = testref::Dot4(grad, grad);
  double gnorm = std::sqrt(gg);
  const double gnorm0 = gnorm;
  double delta = gnorm0 > 0 ? gnorm0 : 1.0;
  const auto is_converged = [&](double g) {
    return g <= opt.gradient_tolerance * gnorm0 ||
           (opt.absolute_tolerance > 0 && g <= opt.absolute_tolerance);
  };
  if (is_converged(gnorm) || gnorm0 == 0.0) {
    res.converged = true;
    res.objective = value;
    res.gradient_norm = gnorm;
    return res;
  }
  bool grad_eval_at_x = true;
  for (int it = 0; it < opt.max_iterations; ++it) {
    ++res.iterations;
    if (grad_eval_at_x) {
      f.PrepareHessianFromLastGradient(flops);
    } else {
      f.PrepareHessian(x, flops);
    }

    // Truncated CG.
    for (std::size_t i = 0; i < d; ++i) {
      s[i] = 0.0;
      r[i] = -grad[i];
      p[i] = r[i];
    }
    double rr = gg, pp = gg;
    const double stop = opt.cg_tolerance * std::sqrt(gg);
    bool hit_boundary = false;
    for (int j = 0; j < opt.max_cg_iterations; ++j) {
      if (std::sqrt(rr) <= stop) break;
      ++res.cg_iterations;
      for (std::size_t i = 0; i < d; ++i) hp[i] = f.rho() * p[i];
      const double php = f.HessianVecQuad(p, pp, hp, flops);
      if (flops != nullptr) flops->Add(10.0 * static_cast<double>(d));
      auto to_boundary = [&] {
        const double ss = testref::Dot4(s, s);
        const double sp = testref::Dot4(s, p);
        const double disc = sp * sp + pp * (delta * delta - ss);
        const double tau = (-sp + std::sqrt(std::max(0.0, disc))) / pp;
        for (std::size_t i = 0; i < d; ++i) s[i] += tau * p[i];
        for (std::size_t i = 0; i < d; ++i) r[i] += -tau * hp[i];
        hit_boundary = true;
        ++paths.boundary_hits;
      };
      if (php <= 0.0) {
        ++paths.negative_curvature;
        to_boundary();
        break;
      }
      const double alpha = rr / php;
      if (testref::AxpyNormSq4(alpha, p, s) >= delta * delta) {
        for (std::size_t i = 0; i < d; ++i) s[i] += -alpha * p[i];
        to_boundary();
        break;
      }
      const double rr_new = testref::AxpyNormSq4(-alpha, hp, r);
      const double beta = rr_new / rr;
      pp = testref::XpayNormSq4(beta, r, p);
      rr = rr_new;
    }

    double gs = 0.0, sr = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double si = s[i];
      x_new[i] = x[i] + si;
      gs += grad[i] * si;
      sr += r[i] * si;
      sq += si * si;
    }
    const double predicted = -0.5 * (gs - sr);
    const double snorm = std::sqrt(sq);
    if (flops != nullptr) flops->Add(7.0 * static_cast<double>(d));
    const double value_new = f.ValueAndGradient(x_new, grad_new, flops);
    const double actual = value - value_new;
    grad_eval_at_x = false;
    const double value_floor =
        8.0 * std::numeric_limits<double>::epsilon() * std::fabs(value);
    if (predicted > 0 && predicted < value_floor && actual <= 0) {
      res.converged = true;
      break;
    }
    const double ratio = predicted > 0 ? actual / predicted : -1.0;
    if (ratio < opt.eta1) {
      delta = std::min(std::max(opt.sigma1 * snorm, opt.sigma1 * delta),
                       opt.sigma2 * delta);
    } else if (ratio >= opt.eta2 && hit_boundary) {
      delta = std::max(delta, opt.sigma3 * snorm);
    }
    if (ratio > opt.eta0 && actual > 0) {
      value = value_new;
      grad_eval_at_x = true;
      std::swap(grad, grad_new);
      gg = testref::CopyNormSq4(x_new, x, grad);
      gnorm = std::sqrt(gg);
      if (is_converged(gnorm)) {
        res.converged = true;
        break;
      }
    } else {
      ++paths.rejected_steps;
    }
    if (delta < 1e-12 || snorm < 1e-14) break;
  }
  res.objective = value;
  res.gradient_norm = gnorm;
  return res;
}

/// One x-subproblem: v, z and the start x drawn at the given scales.
struct TronCase {
  double rho = 1.0;
  double v_scale = 0.1;
  double z_scale = 0.1;
  double x0_scale = 0.0;
  bool gram = false;
  TronOptions opt;
};

/// Solves `c` on `ds` with TronMinimize (through one reused workspace) and
/// with ReferenceTron; x, the TronResult and the flop count must agree bit
/// for bit. Returns the paths the reference took.
RefPaths ExpectTronMatchesReference(const data::Dataset& ds, const TronCase& c,
                                    std::uint64_t seed) {
  const auto d = static_cast<std::size_t>(ds.num_features());
  Rng rng(seed);
  linalg::DenseVector v(d), z(d), x0(d);
  for (auto& e : v) e = c.v_scale * rng.NextGaussian();
  for (auto& e : z) e = c.z_scale * rng.NextGaussian();
  for (auto& e : x0) e = c.x0_scale * rng.NextGaussian();

  ProximalLogistic f(&ds, c.rho), f_ref(&ds, c.rho);
  f.SetUseGramHessian(c.gram);
  f_ref.SetUseGramHessian(c.gram);
  f.SetIterationTerms(v, z);
  f_ref.SetIterationTerms(v, z);

  TronWorkspace ws;
  RefPaths paths;
  // Two solves back to back: the second starts where the first ended and
  // reuses the workspace the first left behind, as an ADMM worker does.
  linalg::DenseVector x = x0, x_ref = x0;
  for (int solve = 0; solve < 2; ++solve) {
    FlopCounter flops, flops_ref;
    const TronResult got = TronMinimize(f, x, c.opt, &flops, ws);
    const TronResult want = ReferenceTron(f_ref, x_ref, c.opt, &flops_ref, paths);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.cg_iterations, want.cg_iterations);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(testref::Bits(got.objective), testref::Bits(want.objective));
    EXPECT_EQ(testref::Bits(got.gradient_norm),
              testref::Bits(want.gradient_norm));
    EXPECT_EQ(testref::Bits(flops.flops), testref::Bits(flops_ref.flops));
    std::size_t x_mismatches = 0;
    for (std::size_t i = 0; i < d; ++i) {
      if (testref::Bits(x[i]) != testref::Bits(x_ref[i])) ++x_mismatches;
    }
    EXPECT_EQ(x_mismatches, 0u) << "solve " << solve;
    for (auto& e : v) e = -e;  // a different subproblem for the second solve
  }
  return paths;
}

/// A shard of the named synthetic profile (first `rows` samples).
data::Dataset ProfileShard(const std::string& profile, std::uint64_t rows) {
  auto spec = data::ProfileByName(profile, 0.01);
  spec.seed = 17;
  const auto train = data::GenerateSynthetic(spec).train;
  return train.SliceSamples(0, std::min<std::uint64_t>(rows, train.num_samples()));
}

TronOptions BenchLikeTron() {
  TronOptions t;  // the harnesses' inexact solve
  t.max_iterations = 10;
  t.max_cg_iterations = 10;
  t.gradient_tolerance = 1e-2;
  return t;
}

TEST(TronBitwise, MatchesPreFusionLoopOnNews20Shard) {
  const auto ds = ProfileShard("news20", 64);  // wide: 64 x 13,551
  RefPaths total;
  TronCase easy;
  easy.opt = BenchLikeTron();
  // A small penalty and a far start: long steps the model mispredicts.
  TronCase hard;
  hard.rho = 0.01;
  hard.x0_scale = 3.0;
  hard.v_scale = 1.0;
  for (const TronCase& c : {easy, hard}) {
    const RefPaths p = ExpectTronMatchesReference(ds, c, 101);
    total.boundary_hits += p.boundary_hits;
    total.rejected_steps += p.rejected_steps;
  }
  EXPECT_GT(total.boundary_hits, 0);
  EXPECT_GT(total.rejected_steps, 0);
}

TEST(TronBitwise, MatchesPreFusionLoopOnUrlTallShard) {
  const auto ds = ProfileShard("url_tall", 1250);  // tall: 1,250 x 193
  RefPaths total;
  TronCase cg;
  cg.opt = BenchLikeTron();
  TronCase gram = cg;
  gram.gram = true;
  TronCase hard;
  hard.rho = 0.01;
  hard.x0_scale = 3.0;
  hard.v_scale = 1.0;
  for (const TronCase& c : {cg, gram, hard}) {
    const RefPaths p = ExpectTronMatchesReference(ds, c, 202);
    total.boundary_hits += p.boundary_hits;
    total.rejected_steps += p.rejected_steps;
  }
  EXPECT_GT(total.boundary_hits, 0);
  EXPECT_GT(total.rejected_steps, 0);
}

// With rho = 0 and a data term whose rows are all empty, the Hessian is zero:
// every CG direction has p^T H p = 0 and takes the negative-curvature exit.
TEST(TronBitwise, MatchesPreFusionLoopUnderZeroCurvature) {
  const std::uint64_t d = 37;
  linalg::CsrMatrix::Builder b(d);
  std::vector<double> labels;
  for (int r = 0; r < 8; ++r) {
    b.AddRow(std::span<const linalg::CsrMatrix::Index>{},
             std::span<const double>{});
    labels.push_back(r % 2 == 0 ? 1.0 : -1.0);
  }
  const data::Dataset ds(b.Build(), labels);
  TronCase c;
  c.rho = 0.0;
  c.opt.max_iterations = 5;
  const RefPaths p = ExpectTronMatchesReference(ds, c, 303);
  EXPECT_GT(p.negative_curvature, 0);
}

// ----------------------------------------------------------------- prox ----

TEST(Prox, ZUpdateL1IsSoftThreshold) {
  ZUpdateConfig cfg;
  cfg.lambda = 2.0;
  cfg.rho = 1.0;
  cfg.num_workers = 4;
  // scale = 4, kappa = 0.5
  const linalg::DenseVector W{8.0, -8.0, 1.0, 0.0};
  linalg::DenseVector z(4);
  ZUpdate(cfg, W, z);
  EXPECT_DOUBLE_EQ(z[0], 1.5);
  EXPECT_DOUBLE_EQ(z[1], -1.5);
  EXPECT_DOUBLE_EQ(z[2], 0.0);
  EXPECT_DOUBLE_EQ(z[3], 0.0);
}

TEST(Prox, ZUpdateSolvesStationarityCondition) {
  // z must satisfy 0 in lambda*sign(z) + rho*N*z - W componentwise.
  ZUpdateConfig cfg;
  cfg.lambda = 1.0;
  cfg.rho = 0.5;
  cfg.num_workers = 3;
  const linalg::DenseVector W{5.0, -0.4, 2.0};
  linalg::DenseVector z(3);
  ZUpdate(cfg, W, z);
  const double scale = cfg.rho * 3;
  for (std::size_t i = 0; i < 3; ++i) {
    if (z[i] != 0.0) {
      const double subgrad = cfg.lambda * (z[i] > 0 ? 1 : -1) +
                             scale * z[i] - W[i];
      EXPECT_NEAR(subgrad, 0.0, 1e-12);
    } else {
      EXPECT_LE(std::fabs(W[i]), cfg.lambda + 1e-12);
    }
  }
}

TEST(Prox, ZUpdateNoneAndL2) {
  ZUpdateConfig cfg;
  cfg.regularizer = Regularizer::kNone;
  cfg.rho = 2.0;
  cfg.num_workers = 1;
  const linalg::DenseVector W{4.0};
  linalg::DenseVector z(1);
  ZUpdate(cfg, W, z);
  EXPECT_DOUBLE_EQ(z[0], 2.0);

  cfg.regularizer = Regularizer::kL2;
  cfg.lambda = 1.0;
  ZUpdate(cfg, W, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);  // W / (rho*N + 2*lambda) = 4/4
}

TEST(Prox, YUpdateAndWLocal) {
  const linalg::DenseVector x{1.0, 2.0}, z{0.5, 0.5};
  linalg::DenseVector y{0.0, 1.0};
  YUpdate(2.0, x, z, y);
  EXPECT_EQ(y, (linalg::DenseVector{1.0, 4.0}));
  linalg::DenseVector w(2);
  WLocal(2.0, x, y, w);
  EXPECT_EQ(w, (linalg::DenseVector{3.0, 8.0}));
}

TEST(Prox, ValidationErrors) {
  ZUpdateConfig cfg;
  cfg.rho = 0.0;
  const linalg::DenseVector W{1.0};
  linalg::DenseVector z(1);
  EXPECT_THROW(ZUpdate(cfg, W, z), InvalidArgument);
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, RelativeErrorDefinition) {
  EXPECT_DOUBLE_EQ(RelativeError(12.0, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(RelativeError(10.0, 10.0), 0.0);
  EXPECT_THROW(RelativeError(1.0, 0.0), InvalidArgument);
}

TEST(Metrics, AccuracyOnSeparableData) {
  data::SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 10;
  spec.num_test = 200;
  spec.label_noise = 0.0;
  spec.seed = 31;
  const auto gen = data::GenerateSynthetic(spec);
  // The planted separator classifies its own data perfectly.
  EXPECT_DOUBLE_EQ(Accuracy(gen.test, gen.true_weights), 1.0);
  // The negated separator gets everything wrong.
  auto neg = gen.true_weights;
  linalg::Scale(-1.0, neg);
  EXPECT_LT(Accuracy(gen.test, neg), 0.1);
}

TEST(Metrics, GlobalObjectiveIncludesRegularizer) {
  const auto ds = SmallDataset();
  linalg::DenseVector z(ds.num_features(), 0.0);
  const double base = GlobalObjective(ds, z, 5.0);
  z[0] = 1.0;
  const double with_l1 = GlobalObjective(ds, z, 5.0);
  EXPECT_GT(with_l1, 0.0);
  EXPECT_NEAR(with_l1 - (LogisticValue(ds, z)), 5.0, 1e-9);
  EXPECT_GT(base, 0.0);
}

}  // namespace
}  // namespace psra::solver
