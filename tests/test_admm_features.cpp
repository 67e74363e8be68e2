// Tests for the extension features: consensus residuals, adaptive penalty,
// residual-based stopping, trace CSV export, and the extra collectives used
// through the ADMM layer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "linalg/dense_ops.hpp"
#include "scalar_kernels.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::admm {
namespace {

data::SyntheticSpec TinySpec(std::uint64_t seed = 42) {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.num_features = 80;
  spec.num_train = 160;
  spec.num_test = 60;
  spec.mean_row_nnz = 8.0;
  spec.label_noise = 0.02;
  spec.seed = seed;
  return spec;
}

ClusterConfig TinyCluster(std::uint32_t nodes, std::uint32_t wpn) {
  ClusterConfig c;
  c.num_nodes = nodes;
  c.workers_per_node = wpn;
  return c;
}

// -------------------------------------------------------------- residuals ----

TEST(Residuals, RecordedAndDecreasing) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  RunOptions opt;
  opt.max_iterations = 40;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);

  ASSERT_EQ(res.trace.size(), 40u);
  for (const auto& rec : res.trace) {
    EXPECT_GE(rec.primal_residual, 0.0);
    EXPECT_GE(rec.dual_residual, 0.0);
    EXPECT_DOUBLE_EQ(rec.rho, p.rho);  // adaptive rho off: constant
  }
  // The primal residual must shrink substantially as consensus forms.
  EXPECT_LT(res.trace.back().primal_residual,
            0.2 * res.trace.front().primal_residual);
}

TEST(Residuals, WorkerSetComputesConsistentNorms) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  // All state is zero: every norm must be zero.
  linalg::DenseVector z_prev(p.dim(), 0.0);
  const auto res = ws.ComputeResiduals(z_prev);
  EXPECT_DOUBLE_EQ(res.primal, 0.0);
  EXPECT_DOUBLE_EQ(res.dual, 0.0);
  EXPECT_DOUBLE_EQ(res.x_norm, 0.0);

  // Perturb one worker's x: primal residual equals that perturbation norm.
  ws.x(0)[3] = 2.0;
  const auto res2 = ws.ComputeResiduals(z_prev);
  EXPECT_DOUBLE_EQ(res2.primal, 2.0);
  EXPECT_DOUBLE_EQ(res2.x_norm, 2.0);
}

// The fused per-worker norms against the scalar four-lane references, and
// AdvanceResiduals against the ComputeResiduals + MeanZInto pair it
// replaces in the engines: all bitwise.
TEST(Residuals, AdvanceResidualsMatchesScalarReferenceBitwise) {
  auto spec = TinySpec();
  spec.num_features = 83;  // a lane tail of 3
  const auto p = BuildProblem(spec, 3);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  Rng rng(8);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    for (auto& e : ws.x(i)) e = rng.NextGaussian();
    for (auto& e : ws.y(i)) e = rng.NextGaussian();
    for (auto& e : ws.z(i)) e = rng.NextGaussian();
  }
  linalg::DenseVector z_prev(p.dim());
  for (auto& e : z_prev) e = rng.NextGaussian();

  const auto old_res = ws.ComputeResiduals(z_prev);
  linalg::DenseVector mean;
  ws.MeanZInto(mean);
  linalg::DenseVector advanced = z_prev;
  const auto res = ws.AdvanceResiduals(advanced);

  double primal_sq = 0.0, x_sq = 0.0, y_sq = 0.0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const double dist = testref::DistanceL2_4(ws.x(i), ws.z(i));
    const double nx = testref::Norm2_4(ws.x(i));
    const double ny = testref::Norm2_4(ws.y(i));
    primal_sq += dist * dist;
    x_sq += nx * nx;
    y_sq += ny * ny;
  }
  const double sqrt_n = std::sqrt(static_cast<double>(ws.size()));
  using testref::Bits;
  EXPECT_EQ(Bits(res.primal), Bits(std::sqrt(primal_sq)));
  EXPECT_EQ(Bits(res.x_norm), Bits(std::sqrt(x_sq)));
  EXPECT_EQ(Bits(res.y_norm), Bits(std::sqrt(y_sq)));
  EXPECT_EQ(Bits(res.dual),
            Bits(ws.rho() * sqrt_n * testref::DistanceL2_4(mean, z_prev)));
  EXPECT_EQ(Bits(res.z_norm), Bits(sqrt_n * testref::Norm2_4(mean)));
  for (const auto& [a, b] : {std::pair{res.primal, old_res.primal},
                             {res.dual, old_res.dual},
                             {res.x_norm, old_res.x_norm},
                             {res.y_norm, old_res.y_norm},
                             {res.z_norm, old_res.z_norm}}) {
    EXPECT_EQ(Bits(a), Bits(b));
  }
  ASSERT_EQ(advanced.size(), mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    EXPECT_EQ(Bits(advanced[j]), Bits(mean[j])) << "coordinate " << j;
  }
}

// ----------------------------------------------------------- adaptive rho ----

TEST(AdaptiveRho, BalancesResiduals) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  AdaptiveRhoConfig cfg;
  cfg.enabled = true;
  cfg.mu = 10.0;
  cfg.tau = 2.0;

  WorkerSet::Residuals res;
  res.primal = 100.0;
  res.dual = 1.0;  // primal dominates -> rho must grow
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), p.rho * 2.0);

  res.primal = 1.0;
  res.dual = 1000.0;  // dual dominates -> rho must shrink
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), p.rho);  // back to initial

  res.primal = 1.0;
  res.dual = 2.0;  // balanced: no change
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), p.rho);
}

TEST(AdaptiveRho, RespectsClamps) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  AdaptiveRhoConfig cfg;
  cfg.enabled = true;
  cfg.rho_max = 1.5;
  WorkerSet::Residuals res;
  res.primal = 100.0;
  res.dual = 0.001;
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), 1.5);
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), 1.5);  // stays clamped
}

TEST(AdaptiveRho, DisabledIsIdentity) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  WorkerSet::Residuals res;
  res.primal = 100.0;
  res.dual = 0.001;
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho({}, res), p.rho);
}

TEST(AdaptiveRho, EndToEndRunConvergesAndTracksRho) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  RunOptions opt;
  opt.max_iterations = 30;
  opt.adaptive_rho.enabled = true;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
  // rho must have been recorded each iteration and stay in clamps.
  for (const auto& rec : res.trace) {
    EXPECT_GE(rec.rho, opt.adaptive_rho.rho_min);
    EXPECT_LE(rec.rho, opt.adaptive_rho.rho_max);
  }
}

// --------------------------------------------------------------- stopping ----

TEST(Stopping, CriterionMathIsBoydStyle) {
  StoppingConfig cfg;
  cfg.enabled = true;
  cfg.eps_abs = 0.1;
  cfg.eps_rel = 0.0;
  WorkerSet::Residuals res;
  res.primal = 0.5;
  res.dual = 0.5;
  // scale = sqrt(4 * 1) = 2 -> thresholds 0.2: not converged at 0.5.
  EXPECT_FALSE(WorkerSet::ShouldStop(cfg, res, 4, 1));
  res.primal = 0.1;
  res.dual = 0.1;
  EXPECT_TRUE(WorkerSet::ShouldStop(cfg, res, 4, 1));
  cfg.enabled = false;
  EXPECT_FALSE(WorkerSet::ShouldStop(cfg, res, 4, 1));
}

TEST(Stopping, EndsRunEarlyOnLooseTolerances) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 200;
  opt.stopping.enabled = true;
  opt.stopping.eps_abs = 1e-2;
  opt.stopping.eps_rel = 1e-1;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_LT(res.iterations_run, 200u);
  EXPECT_GT(res.iterations_run, 1u);
}

TEST(Stopping, TightTolerancesRunToMaxIterations) {
  const auto cluster = TinyCluster(2, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 5;
  opt.stopping.enabled = true;
  opt.stopping.eps_abs = 1e-14;
  opt.stopping.eps_rel = 1e-14;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_FALSE(res.stopped_early);
  EXPECT_EQ(res.iterations_run, 5u);
}

// -------------------------------------------------------------- trace csv ----

TEST(TraceCsv, WritesHeaderAndRows) {
  const auto cluster = TinyCluster(2, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 3;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);

  std::ostringstream os;
  res.WriteTraceCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("algorithm,iteration,objective"), std::string::npos);
  // header + 3 records
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("PSRA-HGADMM(psr)"), std::string::npos);
}

// --------------------------------------------------------- mixed precision ----

TEST(MixedPrecision, CheaperCommSlightlyDifferentModel) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 12;

  PsraConfig fp64;
  fp64.cluster = cluster;
  fp64.grouping = GroupingMode::kHierarchical;
  PsraConfig fp32 = fp64;
  fp32.mixed_precision = true;

  const auto a = PsraHgAdmm(fp64).Run(p, opt);
  const auto b = PsraHgAdmm(fp32).Run(p, opt);

  // Same element counts, cheaper wire time (4-byte values inter-node).
  EXPECT_LT(b.total_comm_time, a.total_comm_time);
  // fp32 rounding perturbs the trajectory only slightly: both converge to
  // nearly the same objective.
  EXPECT_NEAR(a.final_objective, b.final_objective,
              1e-3 * a.final_objective);
  EXPECT_GT(b.final_accuracy, 0.55);
}

TEST(MixedPrecision, RoundToFloatQuantizes) {
  linalg::DenseVector v{1.0, 0.1, -3.337779921e100, 0.0};
  linalg::RoundToFloat(v);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], static_cast<double>(0.1f));
  EXPECT_TRUE(std::isinf(v[2]));  // overflow saturates like fp32
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

// ---------------------------------------------------------------- censoring ----

TEST(Censoring, SuppressesSendsAndStaysAccurate) {
  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 40;

  PsraConfig plain;
  plain.cluster = cluster;
  plain.grouping = GroupingMode::kFlat;
  PsraConfig censored = plain;
  censored.censor_threshold = 0.5;
  censored.censor_decay = 0.95;

  const auto a = PsraHgAdmm(plain).Run(p, opt);
  const auto b = PsraHgAdmm(censored).Run(p, opt);

  EXPECT_EQ(a.censored_sends, 0u);
  EXPECT_GT(b.censored_sends, 0u);
  // Fewer elements hit the wire...
  EXPECT_LT(b.elements_sent, a.elements_sent);
  // ...and the model stays close to the uncensored run's quality.
  EXPECT_NEAR(a.final_objective, b.final_objective,
              0.05 * a.final_objective);
}

TEST(Censoring, HugeThresholdFreezesCommunication) {
  const auto cluster = TinyCluster(2, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 10;
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  cfg.censor_threshold = 1e12;  // everything censored
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_EQ(res.censored_sends, 10u * cluster.world_size());
  EXPECT_EQ(res.elements_sent, 0u);  // no payload ever moved
}

TEST(Censoring, WorksInHierarchicalMode) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 40;
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kHierarchical;
  cfg.censor_threshold = 2.0;
  cfg.censor_decay = 1.0;  // constant threshold: late small deltas censored
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_GT(res.censored_sends, 0u);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
}

TEST(Censoring, RejectedWithDynamicGrouping) {
  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 1;
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kDynamicGroups;
  cfg.censor_threshold = 0.5;
  EXPECT_THROW(PsraHgAdmm(cfg).Run(p, opt), InvalidArgument);
}

TEST(Censoring, ZeroThresholdIsExactlyPlainRun) {
  const auto cluster = TinyCluster(3, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 8;
  PsraConfig plain;
  plain.cluster = cluster;
  plain.grouping = GroupingMode::kFlat;
  PsraConfig off = plain;
  off.censor_threshold = 0.0;
  const auto a = PsraHgAdmm(plain).Run(p, opt);
  const auto b = PsraHgAdmm(off).Run(p, opt);
  EXPECT_DOUBLE_EQ(a.final_objective, b.final_objective);
  EXPECT_EQ(a.elements_sent, b.elements_sent);
}

// --------------------------------------------- extra collectives in ADMM ----

class ExtraCollectiveInAdmm
    : public ::testing::TestWithParam<comm::AllreduceKind> {};

TEST_P(ExtraCollectiveInAdmm, ProducesSameModelAsPsr) {
  // In full-barrier mode the collective choice must not change the math.
  const auto cluster = TinyCluster(5, 1);  // odd size exercises RHD folding
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 8;

  PsraConfig base;
  base.cluster = cluster;
  base.grouping = GroupingMode::kHierarchical;
  base.allreduce = comm::AllreduceKind::kPsr;
  const auto ref = PsraHgAdmm(base).Run(p, opt);

  PsraConfig other = base;
  other.allreduce = GetParam();
  const auto alt = PsraHgAdmm(other).Run(p, opt);
  EXPECT_LT(linalg::DistanceL2(ref.final_z, alt.final_z), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ExtraCollectiveInAdmm,
                         ::testing::Values(comm::AllreduceKind::kRhd,
                                           comm::AllreduceKind::kTree,
                                           comm::AllreduceKind::kNaive,
                                           comm::AllreduceKind::kRing));

}  // namespace
}  // namespace psra::admm
