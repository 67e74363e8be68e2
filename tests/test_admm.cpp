// Integration tests for the ADMM algorithm family: convergence, consensus,
// determinism, time accounting and the qualitative relationships the paper
// reports.
#include <gtest/gtest.h>

#include <cmath>

#include "admm/ad_admm.hpp"
#include "admm/admmlib.hpp"
#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "admm/reference.hpp"
#include "admm/registry.hpp"
#include "linalg/dense_ops.hpp"
#include "solver/metrics.hpp"
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

RunOptions ShortRun(std::uint64_t iters = 20) {
  RunOptions opt;
  opt.max_iterations = iters;
  return opt;
}

// ---------------------------------------------------------------- problem ----

TEST(Problem, BuildPartitionsAcrossWorkers) {
  const auto p = BuildProblem(TinySpec(), 8);
  EXPECT_EQ(p.num_workers(), 8u);
  std::uint64_t total = 0;
  for (const auto& s : p.shards) total += s.num_samples();
  EXPECT_EQ(total, p.train.num_samples());
}

TEST(Problem, RejectsMoreWorkersThanSamples) {
  EXPECT_THROW(BuildProblem(TinySpec(), 100000), InvalidArgument);
}

// ------------------------------------------------------------ reference ----

TEST(Reference, FindsLowObjective) {
  const auto p = BuildProblem(TinySpec(), 1, /*lambda=*/1.0);
  ReferenceOptions opt;
  opt.iterations = 60;
  const double f_min = ReferenceMinimum(p.train, p.lambda, opt);
  const linalg::DenseVector zero(p.dim(), 0.0);
  const double f_zero = solver::GlobalObjective(p.train, zero, p.lambda);
  EXPECT_GT(f_min, 0.0);
  EXPECT_LT(f_min, f_zero);
}

// ------------------------------------------------------------ algorithms ----

TEST(PsraHgAdmm, ObjectiveDecreasesAndConsensusForms) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  const auto res = PsraHgAdmm(cfg).Run(p, ShortRun(25));

  ASSERT_EQ(res.trace.size(), 25u);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
  EXPECT_GT(res.final_accuracy, 0.6);
  EXPECT_GT(res.total_comm_time, 0.0);
  EXPECT_GT(res.total_cal_time, 0.0);
  EXPECT_GT(res.elements_sent, 0u);
}

TEST(PsraHgAdmm, AllGroupingModesConverge) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  const double f_min = ReferenceMinimum(p.train, p.lambda,
                                        {.iterations = 80, .rho = p.rho, .tron = {}});
  for (auto mode : {GroupingMode::kFlat, GroupingMode::kHierarchical,
                    GroupingMode::kDynamicGroups}) {
    PsraConfig cfg;
    cfg.cluster = cluster;
    cfg.grouping = mode;
    auto res = PsraHgAdmm(cfg).Run(p, ShortRun(40));
    res.ApplyReference(f_min);
    EXPECT_LT(res.trace.back().relative_error, 0.25)
        << GroupingModeName(mode);
  }
}

TEST(PsraHgAdmm, DeterministicAcrossRuns) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  const auto a = PsraHgAdmm(cfg).Run(p, ShortRun(10));
  const auto b = PsraHgAdmm(cfg).Run(p, ShortRun(10));
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_DOUBLE_EQ(a.final_objective, b.final_objective);
  EXPECT_DOUBLE_EQ(a.total_comm_time, b.total_comm_time);
  EXPECT_EQ(a.elements_sent, b.elements_sent);
}

TEST(PsraHgAdmm, FlatAndHierarchicalAgreeOnModel) {
  // Both compute exact global consensus; only the communication schedule
  // differs, so the learned model must match closely.
  const auto cluster = TinyCluster(3, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig flat;
  flat.cluster = cluster;
  flat.grouping = GroupingMode::kFlat;
  PsraConfig hier;
  hier.cluster = cluster;
  hier.grouping = GroupingMode::kHierarchical;
  const auto a = PsraHgAdmm(flat).Run(p, ShortRun(15));
  const auto b = PsraHgAdmm(hier).Run(p, ShortRun(15));
  EXPECT_NEAR(a.final_objective, b.final_objective,
              1e-6 * std::fabs(a.final_objective));
  EXPECT_LT(linalg::DistanceL2(a.final_z, b.final_z), 1e-6);
}

TEST(PsraHgAdmm, WorkersReachConsensusWithZ) {
  const auto cluster = TinyCluster(2, 2);
  auto p = BuildProblem(TinySpec(), cluster.world_size(), /*lambda=*/0.5,
                        /*rho=*/2.0);
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  const auto res = PsraHgAdmm(cfg).Run(p, ShortRun(60));
  // Primal residual ||x_i - z|| shrinks: final z should classify train
  // nearly as well as the reference and the objective should be near f*.
  const double f_min = ReferenceMinimum(p.train, p.lambda,
                                        {.iterations = 120, .rho = p.rho, .tron = {}});
  EXPECT_LT(res.final_objective, 1.2 * f_min + 1e-9);
}

TEST(PsraHgAdmm, SparseVsDenseCommSameModelDifferentCost) {
  // Full-barrier mode: group membership cannot depend on transfer times, so
  // the encoding (sparse vs dense) must not change the computed model. (With
  // dynamic grouping it legitimately can: transfer durations shift leader
  // report order at the Group Generator.)
  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig sparse_cfg;
  sparse_cfg.cluster = cluster;
  sparse_cfg.grouping = GroupingMode::kHierarchical;
  sparse_cfg.sparse_comm = true;
  PsraConfig dense_cfg;
  dense_cfg.cluster = cluster;
  dense_cfg.grouping = GroupingMode::kHierarchical;
  dense_cfg.sparse_comm = false;
  const auto s = PsraHgAdmm(sparse_cfg).Run(p, ShortRun(8));
  const auto d = PsraHgAdmm(dense_cfg).Run(p, ShortRun(8));
  EXPECT_NEAR(s.final_objective, d.final_objective,
              1e-9 * std::fabs(d.final_objective));
  EXPECT_NE(s.elements_sent, d.elements_sent);
}

TEST(PsraHgAdmm, RingAblationSameModelMoreExpensiveComm) {
  const auto cluster = TinyCluster(6, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig psr;
  psr.cluster = cluster;
  psr.grouping = GroupingMode::kHierarchical;
  PsraConfig ring = psr;
  ring.allreduce = comm::AllreduceKind::kRing;
  const auto a = PsraHgAdmm(psr).Run(p, ShortRun(10));
  const auto b = PsraHgAdmm(ring).Run(p, ShortRun(10));
  // Same BSP math -> identical models.
  EXPECT_LT(linalg::DistanceL2(a.final_z, b.final_z), 1e-9);
}

TEST(PsraHgAdmm, GroupThresholdDefaultsToHalfNodes) {
  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.group_threshold = 2;
  const auto explicit_half = PsraHgAdmm(cfg).Run(p, ShortRun(5));
  cfg.group_threshold = 0;  // default: nodes/2 == 2
  const auto defaulted = PsraHgAdmm(cfg).Run(p, ShortRun(5));
  EXPECT_DOUBLE_EQ(explicit_half.final_objective, defaulted.final_objective);
}

TEST(LocalSolver, AutoHeuristicPicksGramOnTallShards) {
  LocalSolverOptions opt;
  opt.mode = LocalSolverOptions::Mode::kAuto;
  EXPECT_TRUE(UseGramSolver(opt, /*rows=*/4000, /*cols=*/100));
  EXPECT_FALSE(UseGramSolver(opt, /*rows=*/300, /*cols=*/100));  // not tall
  EXPECT_FALSE(UseGramSolver(opt, /*rows=*/100000, /*cols=*/4096));  // wide
  EXPECT_FALSE(UseGramSolver(opt, /*rows=*/10, /*cols=*/0));

  opt.mode = LocalSolverOptions::Mode::kCg;
  EXPECT_FALSE(UseGramSolver(opt, 4000, 100));
  opt.mode = LocalSolverOptions::Mode::kGram;
  EXPECT_TRUE(UseGramSolver(opt, 10, 100));  // forced, shape-independent
}

TEST(PsraHgAdmm, GramSolverModeAgreesWithCgOnModel) {
  // The Gram Hessian changes the floating-point route to the same Newton
  // step, not the subproblem: both solver modes must land on (numerically)
  // the same consensus model, and the default mode must remain kCg so the
  // committed baselines stay pinned.
  RunOptions defaults;
  EXPECT_TRUE(defaults.local_solver.mode == LocalSolverOptions::Mode::kCg);

  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kHierarchical;

  auto cg_opt = ShortRun(15);
  auto gram_opt = ShortRun(15);
  gram_opt.local_solver.mode = LocalSolverOptions::Mode::kGram;
  const auto a = PsraHgAdmm(cfg).Run(p, cg_opt);
  const auto b = PsraHgAdmm(cfg).Run(p, gram_opt);
  EXPECT_NEAR(a.final_objective, b.final_objective,
              1e-6 * std::fabs(a.final_objective));
  EXPECT_LT(linalg::DistanceL2(a.final_z, b.final_z), 1e-4);
}

TEST(PsraHgAdmm, RejectsMismatchedProblem) {
  const auto p = BuildProblem(TinySpec(), 4);
  PsraConfig cfg;
  cfg.cluster = TinyCluster(4, 2);  // world = 8 != 4 shards
  EXPECT_THROW(PsraHgAdmm(cfg).Run(p, ShortRun(1)), InvalidArgument);
}

// ---------------------------------------------------------------- admmlib ----

TEST(AdmmLib, ConvergesOnTinyProblem) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  AdmmLibConfig cfg;
  cfg.cluster = cluster;
  const auto res = AdmmLib(cfg).Run(p, ShortRun(30));
  ASSERT_EQ(res.trace.size(), 30u);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
  EXPECT_GT(res.final_accuracy, 0.55);
}

TEST(AdmmLib, DeterministicAcrossRuns) {
  const auto cluster = TinyCluster(3, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  AdmmLibConfig cfg;
  cfg.cluster = cluster;
  const auto a = AdmmLib(cfg).Run(p, ShortRun(10));
  const auto b = AdmmLib(cfg).Run(p, ShortRun(10));
  EXPECT_DOUBLE_EQ(a.final_objective, b.final_objective);
  EXPECT_DOUBLE_EQ(a.total_comm_time, b.total_comm_time);
}

TEST(AdmmLib, RejectsBadHyperparameters) {
  AdmmLibConfig cfg;
  cfg.min_barrier_fraction = 0.0;
  EXPECT_THROW(AdmmLib{cfg}, InvalidArgument);
  cfg.min_barrier_fraction = 0.5;
  cfg.max_delay = 0;
  EXPECT_THROW(AdmmLib{cfg}, InvalidArgument);
}

// ---------------------------------------------------------------- ad-admm ----

TEST(AdAdmm, ConvergesOnTinyProblem) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  AdAdmmConfig cfg;
  cfg.cluster = cluster;
  const auto res = AdAdmm(cfg).Run(p, ShortRun(30));
  ASSERT_FALSE(res.trace.empty());
  EXPECT_EQ(res.trace.back().iteration, 30u);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
}

TEST(AdAdmm, DeterministicAcrossRuns) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  AdAdmmConfig cfg;
  cfg.cluster = cluster;
  const auto a = AdAdmm(cfg).Run(p, ShortRun(12));
  const auto b = AdAdmm(cfg).Run(p, ShortRun(12));
  EXPECT_DOUBLE_EQ(a.final_objective, b.final_objective);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

// --------------------------------------------------------------- registry ----

TEST(Registry, EveryNamedAlgorithmRuns) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  for (const auto& name : AlgorithmNames()) {
    const auto res = RunAlgorithm(name, cluster, p, ShortRun(3));
    EXPECT_FALSE(res.trace.empty()) << name;
    EXPECT_GT(res.final_objective, 0.0) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  const auto cluster = TinyCluster(1, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  EXPECT_THROW(RunAlgorithm("sgd", cluster, p, ShortRun(1)), InvalidArgument);
}

// ------------------------------------------------- paper-shape properties ----

TEST(PaperShape, StragglersHurtUngroupedMoreThanGrouped) {
  ClusterConfig cluster = TinyCluster(8, 1);
  cluster.straggler.node_probability = 0.3;
  cluster.straggler.slow_factor_min = 3.0;
  cluster.straggler.slow_factor_max = 6.0;
  const auto p = BuildProblem(TinySpec(), cluster.world_size());

  PsraConfig grouped;
  grouped.cluster = cluster;
  grouped.grouping = GroupingMode::kDynamicGroups;
  // Isolate the grouping mechanism: the GG service overhead is a constant
  // the paper's Section 5.5 discusses separately, and this tiny problem's
  // compute is small enough that it would mask the wait savings.
  grouped.gg_service_time_s = 0.0;
  PsraConfig ungrouped = grouped;
  ungrouped.grouping = GroupingMode::kHierarchical;

  const auto g = PsraHgAdmm(grouped).Run(p, ShortRun(15));
  const auto u = PsraHgAdmm(ungrouped).Run(p, ShortRun(15));
  // Dynamic grouping avoids waiting for the globally slowest node.
  EXPECT_LT(g.total_comm_time, u.total_comm_time);
}

TEST(PaperShape, AdAdmmCommGrowsWithClusterPsraDoesNot) {
  // Fig. 6's qualitative claim, checked in miniature: going from 2 to 6
  // nodes, AD-ADMM's per-worker comm time grows strictly while
  // PSRA-HGADMM's does not grow by more than the same factor.
  const auto spec = TinySpec();
  auto run = [&](const std::string& name, std::uint32_t nodes) {
    const auto cluster = TinyCluster(nodes, 2);
    const auto p = BuildProblem(spec, cluster.world_size());
    return RunAlgorithm(name, cluster, p, ShortRun(10));
  };
  const auto ad2 = run("ad-admm", 2), ad6 = run("ad-admm", 6);
  const auto ps2 = run("psra-hgadmm", 2), ps6 = run("psra-hgadmm", 6);
  const double ad_growth = ad6.total_comm_time / ad2.total_comm_time;
  const double ps_growth = ps6.total_comm_time / ps2.total_comm_time;
  EXPECT_GT(ad_growth, 1.0);
  EXPECT_LT(ps_growth, ad_growth);
}

}  // namespace
}  // namespace psra::admm
