// End-to-end fault-injection tests (DESIGN.md "Fault model"): crash-restart
// recovery from checkpoints, survivor-set collectives under message loss,
// leader death + regrouping, and the async algorithms' drop/delay handling.
// The companion unit tests live next to each layer (test_simnet, test_comm,
// test_wlg, test_checkpoint); this file pins the cross-layer behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "admm/ad_admm.hpp"
#include "admm/gadmm.hpp"
#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "obs/obs.hpp"

namespace psra::admm {
namespace {

data::SyntheticSpec FaultSpec() {
  data::SyntheticSpec spec;
  spec.name = "faults";
  spec.num_features = 100;
  spec.num_train = 200;
  spec.num_test = 60;
  spec.mean_row_nnz = 10.0;
  spec.label_noise = 0.02;
  spec.seed = 21;
  return spec;
}

const ConsensusProblem& Problem() {
  static const ConsensusProblem problem = BuildProblem(FaultSpec(), 8);
  return problem;
}

const ConsensusProblem& Problem4() {
  static const ConsensusProblem problem = BuildProblem(FaultSpec(), 4);
  return problem;
}

RunOptions Options(std::uint64_t iters) {
  RunOptions opt;
  opt.max_iterations = iters;
  opt.eval_every = iters;
  return opt;
}

PsraConfig BaseConfig(GroupingMode grouping) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = grouping;
  return cfg;
}

/// Relative L2 distance ||a - b|| / ||b||.
double RelDiff(const linalg::DenseVector& a, const linalg::DenseVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-12);
}

void ExpectSameBits(const linalg::DenseVector& a,
                    const linalg::DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0) << "index " << i;
  }
}

TEST(Faults, EmptyPlanReportsNoFaults) {
  const auto result =
      PsraHgAdmm(BaseConfig(GroupingMode::kDynamicGroups))
          .Run(Problem(), Options(6));
  EXPECT_EQ(result.faults, FaultStats{});
}

class CrashRecovery : public ::testing::TestWithParam<GroupingMode> {};

TEST_P(CrashRecovery, CheckpointRestartMatchesFaultFreeRun) {
  const std::uint64_t iters = 24;
  auto cfg = BaseConfig(GetParam());
  const RunResult clean = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  cfg.cluster.fault.crashes.push_back({/*rank=*/3, /*at_iteration=*/6,
                                       /*down_iterations=*/4});
  cfg.cluster.fault.checkpoint_every = 5;
  const RunResult faulty = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  EXPECT_EQ(faulty.faults.worker_crashes, 1u);
  EXPECT_EQ(faulty.faults.recoveries, 1u);
  EXPECT_EQ(faulty.faults.down_worker_iterations, 4u);

  // The crashed worker missed 4 of 24 rounds and restarted from the
  // iteration-5 checkpoint; consensus must still land where the fault-free
  // run does (same objective to ~1%, nearby model).
  EXPECT_LT(RelDiff(faulty.final_z, clean.final_z), 0.05);
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.01 * std::fabs(clean.final_objective));
  // Recovery cost was charged: respawn delay + checkpoint transfer.
  EXPECT_GT(faulty.SystemTime(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Groupings, CrashRecovery,
                         ::testing::Values(GroupingMode::kFlat,
                                           GroupingMode::kHierarchical,
                                           GroupingMode::kDynamicGroups),
                         [](const auto& p) {
                           return GroupingModeName(p.param);
                         });

TEST(Faults, PermanentCrashDegradesToSurvivors) {
  const std::uint64_t iters = 16;
  auto cfg = BaseConfig(GroupingMode::kFlat);
  cfg.cluster.fault.crashes.push_back({/*rank=*/5, /*at_iteration=*/4,
                                       /*down_iterations=*/0});  // forever
  const RunResult result = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  EXPECT_EQ(result.faults.worker_crashes, 1u);
  EXPECT_EQ(result.faults.recoveries, 0u);
  EXPECT_EQ(result.faults.down_worker_iterations, iters - 4 + 1);
  EXPECT_EQ(result.iterations_run, iters);
  EXPECT_TRUE(std::isfinite(result.final_objective));
}

TEST(Faults, DroppedMessagesRetryUntilDelivered) {
  const std::uint64_t iters = 12;
  auto cfg = BaseConfig(GroupingMode::kFlat);
  const RunResult clean = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  cfg.cluster.fault.message_drop_probability = 0.15;
  cfg.cluster.fault.max_retries = 8;  // exclusion is (0.15)^9: never here
  const RunResult faulty = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  // Every drop was resolved by a retry, so the arithmetic is untouched —
  // the model is bitwise the fault-free one; only virtual time grew.
  ExpectSameBits(faulty.final_z, clean.final_z);
  EXPECT_GT(faulty.faults.dropped_messages, 0u);
  EXPECT_GT(faulty.faults.retries, 0u);
  EXPECT_GT(faulty.total_comm_time, clean.total_comm_time);
}

TEST(Faults, LeaderDeathTriggersRegroupAndReElection) {
  const std::uint64_t iters = 20;
  auto cfg = BaseConfig(GroupingMode::kDynamicGroups);
  const RunResult clean = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  cfg.cluster.fault.leader_deaths.push_back({/*node=*/1, /*at_iteration=*/4,
                                             /*down_iterations=*/3});
  cfg.cluster.fault.checkpoint_every = 3;
  const RunResult faulty = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  EXPECT_EQ(faulty.faults.leader_deaths, 1u);
  // Node 1 re-elected a survivor while its leader was down, then switched
  // back after the recovery.
  EXPECT_GE(faulty.faults.leader_reelections, 2u);
  EXPECT_EQ(faulty.faults.recoveries, 1u);
  EXPECT_EQ(faulty.faults.down_worker_iterations, 3u);
  EXPECT_LT(RelDiff(faulty.final_z, clean.final_z), 0.05);
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.01 * std::fabs(clean.final_objective));
}

TEST(Faults, FaultyRunsAreReproducible) {
  auto cfg = BaseConfig(GroupingMode::kDynamicGroups);
  cfg.cluster.fault.crashes.push_back({/*rank=*/7, /*at_iteration=*/3,
                                       /*down_iterations=*/2});
  cfg.cluster.fault.leader_deaths.push_back({/*node=*/0, /*at_iteration=*/5,
                                             /*down_iterations=*/2});
  cfg.cluster.fault.message_drop_probability = 0.1;
  // Enough retries that a degraded (possibly single-member) collective never
  // ends up excluding everyone in this 10-iteration window.
  cfg.cluster.fault.max_retries = 8;
  cfg.cluster.fault.checkpoint_every = 2;

  const RunResult a = PsraHgAdmm(cfg).Run(Problem(), Options(10));
  const RunResult b = PsraHgAdmm(cfg).Run(Problem(), Options(10));
  ExpectSameBits(a.final_z, b.final_z);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(std::memcmp(&a.makespan, &b.makespan, sizeof(double)), 0);
}

TEST(Faults, GadmmChainRecoversFromCrash) {
  const std::uint64_t iters = 24;
  GadmmConfig cfg;
  cfg.cluster.num_nodes = 2;
  cfg.cluster.workers_per_node = 2;
  const RunResult clean = Gadmm(cfg).Run(Problem4(), Options(iters));

  auto faulty_cfg = cfg;
  faulty_cfg.cluster.fault.crashes.push_back(
      {/*rank=*/1, /*at_iteration=*/6, /*down_iterations=*/3});
  faulty_cfg.cluster.fault.checkpoint_every = 4;
  const RunResult faulty = Gadmm(faulty_cfg).Run(Problem4(), Options(iters));

  EXPECT_EQ(faulty.faults.worker_crashes, 1u);
  EXPECT_EQ(faulty.faults.recoveries, 1u);
  EXPECT_EQ(faulty.faults.down_worker_iterations, 3u);
  EXPECT_TRUE(std::isfinite(faulty.final_objective));
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.05 * std::fabs(clean.final_objective));
}

TEST(Faults, AdAdmmRetransmitsDropsAndAbsorbsDelays) {
  const std::uint64_t iters = 20;
  AdAdmmConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  const RunResult clean = AdAdmm(cfg).Run(Problem(), Options(iters));

  auto faulty_cfg = cfg;
  faulty_cfg.cluster.fault.message_drop_probability = 0.2;
  faulty_cfg.cluster.fault.message_delay_probability = 0.3;
  faulty_cfg.cluster.fault.message_delay_s = 5e-4;
  const RunResult faulty = AdAdmm(faulty_cfg).Run(Problem(), Options(iters));

  EXPECT_GT(faulty.faults.dropped_messages, 0u);
  EXPECT_EQ(faulty.faults.retries, faulty.faults.dropped_messages);
  EXPECT_GT(faulty.faults.delayed_messages, 0u);
  EXPECT_GT(faulty.total_comm_time, clean.total_comm_time);
  EXPECT_EQ(faulty.iterations_run, clean.iterations_run);
  EXPECT_TRUE(std::isfinite(faulty.final_objective));
  // Late reports reshuffle the async barrier batches, but the bounded-delay
  // guarantee keeps the trajectory near the fault-free one.
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.1 * std::fabs(clean.final_objective));
}

// ---- FaultPin: exact values of faulty PsraHgAdmm runs ---------------------
// The tests above check properties of faulty runs (a recovery happened, the
// model stays near the fault-free one). These pin the runs themselves, so
// any change to how the engine schedules collectives, excludes members or
// regroups under faults shows up as a diff. Integer observables (fault
// counts, messages, structural counters — the classes scripts/sweep_report
// also pins exactly) must match exactly; elements, objective and makespan to
// 1e-9 relative. The expected rows were recorded from the engine and are
// only re-recorded when a change to faulty-run behavior is intended: a
// failing case prints its actual row in the table's own format.

enum class FaultScenario { kChurn, kPermanentCrash, kLeaderDeath };

struct FaultPinCase {
  GroupingMode grouping;
  bool sparse;
  FaultScenario scenario;
};

std::string FaultPinName(const FaultPinCase& c) {
  static const char* const kScenario[] = {"churn", "permanent", "leader"};
  return GroupingModeName(c.grouping) + (c.sparse ? "_sparse_" : "_dense_") +
         kScenario[static_cast<int>(c.scenario)];
}

PsraConfig FaultPinConfig(const FaultPinCase& c) {
  PsraConfig cfg = BaseConfig(c.grouping);
  cfg.sparse_comm = c.sparse;
  auto& f = cfg.cluster.fault;
  switch (c.scenario) {
    case FaultScenario::kChurn:
      // Crash-restart of a non-leader plus lossy, slow links. One retry
      // leaves a member still dropping excluded from its collective.
      f.crashes.push_back({/*rank=*/3, /*at_iteration=*/4,
                           /*down_iterations=*/3});
      f.message_drop_probability = 0.2;
      f.max_retries = 1;
      f.message_delay_probability = 0.2;
      f.message_delay_s = 5e-4;
      f.checkpoint_every = 3;
      break;
    case FaultScenario::kPermanentCrash:
      // A non-leader, then node 1's leader (re-election), then all of node
      // 3 (an inactive node) go down for good.
      f.crashes.push_back({5, 4, 0});
      f.crashes.push_back({2, 6, 0});
      f.crashes.push_back({6, 9, 0});
      f.crashes.push_back({7, 9, 0});
      break;
    case FaultScenario::kLeaderDeath:
      f.leader_deaths.push_back({/*node=*/1, /*at_iteration=*/4,
                                 /*down_iterations=*/3});
      f.leader_deaths.push_back({2, 7, 0});
      f.checkpoint_every = 3;
      break;
  }
  return cfg;
}

struct FaultPinRow {
  const char* name;
  FaultStats faults;
  std::size_t messages_sent;
  std::uint64_t iterations_run;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  double elements_sent;
  double final_objective;
  double makespan;
};

/// Counters whose values are structural (how many collectives ran, how many
/// messages and rounds they took), in the registry's sorted key order.
std::vector<std::pair<std::string, std::uint64_t>> StructuralCounters(
    const obs::MetricsRegistry& m) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [key, value] : m.counters()) {
    for (const char* suffix : {".invocations", ".messages", ".rounds"}) {
      const std::string s(suffix);
      if (key.size() > s.size() &&
          key.compare(key.size() - s.size(), s.size(), s) == 0) {
        out.emplace_back(key, value);
      }
    }
  }
  return out;
}

std::string FormatRow(const std::string& name, const RunResult& r) {
  const FaultStats& f = r.faults;
  std::string s = "{\"" + name + "\", {";
  char buf[512];
  std::snprintf(buf, sizeof buf, "%zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu",
                f.worker_crashes, f.recoveries, f.leader_deaths,
                f.leader_reelections, f.dropped_messages, f.retries,
                f.delayed_messages, f.down_worker_iterations);
  s += buf;
  std::snprintf(buf, sizeof buf, "}, %zu, %llu, {", r.messages_sent,
                static_cast<unsigned long long>(r.iterations_run));
  s += buf;
  bool first = true;
  for (const auto& [key, value] : StructuralCounters(r.metrics)) {
    s += (first ? "{\"" : ", {\"") + key + "\", " + std::to_string(value) + "}";
    first = false;
  }
  std::snprintf(buf, sizeof buf, "}, %zu, %.17g, %.17g},", r.elements_sent,
                r.final_objective, r.makespan);
  return s + buf;
}

// clang-format off
const FaultPinRow kFaultPins[] = {
    {"flat_dense_churn",
     {1, 1, 0, 0, 53, 14, 21, 3},
     1168, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 1168},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 0},
      {"comm.intra.reduce.messages", 0}},
     17400, 92.375130687914393, 0.13240876344012525},
    {"flat_dense_permanent",
     {4, 0, 0, 1, 0, 0, 0, 40},
     876, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 876},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 0},
      {"comm.intra.reduce.messages", 0}},
     14400, 96.369449706393581, 0.0013790645794557713},
    {"flat_dense_leader",
     {0, 0, 0, 0, 0, 0, 0, 0},
     1792, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 1792},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 0},
      {"comm.intra.reduce.messages", 0}},
     22400, 90.517171688218923, 0.0018322107066152003},
    {"flat_sparse_churn",
     {1, 1, 0, 0, 53, 14, 21, 3},
     1168, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 1168},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 0},
      {"comm.intra.reduce.messages", 0}},
     15063, 92.375130687914393, 0.13245681379726787},
    {"flat_sparse_permanent",
     {4, 0, 0, 1, 0, 0, 0, 40},
     876, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 876},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 0},
      {"comm.intra.reduce.messages", 0}},
     12419, 96.369449706393581, 0.0014337412223129151},
    {"flat_sparse_leader",
     {0, 0, 0, 0, 0, 0, 0, 0},
     1792, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 1792},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 0},
      {"comm.intra.reduce.messages", 0}},
     19339, 90.517171688218923, 0.0018877069923294793},
    {"hierarchical_dense_churn",
     {1, 1, 0, 0, 25, 12, 13, 3},
     393, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 280},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 52},
      {"comm.intra.reduce.messages", 61}},
     18900, 92.479464271883174, 0.12389233785621855},
    {"hierarchical_dense_permanent",
     {4, 0, 0, 1, 0, 0, 0, 40},
     352, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 288},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 32},
      {"comm.intra.reduce.messages", 32}},
     14400, 96.369449706393596, 0.00092901585670468912},
    {"hierarchical_dense_leader",
     {0, 1, 2, 3, 0, 0, 0, 12},
     462, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 360},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 50},
      {"comm.intra.reduce.messages", 52}},
     19400, 91.669517852692735, 0.10104918306085636},
    {"hierarchical_sparse_churn",
     {1, 1, 0, 0, 25, 12, 13, 3},
     393, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 280},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 52},
      {"comm.intra.reduce.messages", 61}},
     18459, 92.479464271883174, 0.12394615672791885},
    {"hierarchical_sparse_permanent",
     {4, 0, 0, 1, 0, 0, 0, 40},
     352, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 288},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 32},
      {"comm.intra.reduce.messages", 32}},
     13724, 96.369449706393596, 0.00098559832611351474},
    {"hierarchical_sparse_leader",
     {0, 1, 2, 3, 0, 0, 0, 12},
     462, 16,
     {{"comm.allreduce.psr.invocations", 16},
      {"comm.allreduce.psr.messages", 360},
      {"comm.allreduce.psr.rounds", 32},
      {"comm.intra.bcast.messages", 50},
      {"comm.intra.reduce.messages", 52}},
     18770, 91.669517852692735, 0.10111165419504314},
    {"dynamic_dense_churn",
     {1, 1, 0, 0, 19, 14, 14, 3},
     359, 16,
     {{"comm.allreduce.psr.invocations", 32},
      {"comm.allreduce.psr.messages", 112},
      {"comm.allreduce.psr.rounds", 56},
      {"comm.intra.bcast.messages", 58},
      {"comm.intra.reduce.messages", 61}},
     17500, 94.851008793189266, 0.11785447199101225},
    {"dynamic_dense_permanent",
     {4, 0, 0, 1, 0, 0, 0, 40},
     272, 16,
     {{"comm.allreduce.psr.invocations", 32},
      {"comm.allreduce.psr.messages", 96},
      {"comm.allreduce.psr.rounds", 48},
      {"comm.intra.bcast.messages", 32},
      {"comm.intra.reduce.messages", 32}},
     11200, 103.63764946146284, 0.0023650178448138743},
    {"dynamic_dense_leader",
     {0, 1, 2, 3, 0, 0, 0, 12},
     350, 16,
     {{"comm.allreduce.psr.invocations", 32},
      {"comm.allreduce.psr.messages", 120},
      {"comm.allreduce.psr.rounds", 60},
      {"comm.intra.bcast.messages", 50},
      {"comm.intra.reduce.messages", 52}},
     16200, 95.6581674595013, 0.10239285832037068},
    {"dynamic_sparse_churn",
     {1, 1, 0, 0, 19, 14, 14, 3},
     359, 16,
     {{"comm.allreduce.psr.invocations", 32},
      {"comm.allreduce.psr.messages", 112},
      {"comm.allreduce.psr.rounds", 56},
      {"comm.intra.bcast.messages", 58},
      {"comm.intra.reduce.messages", 61}},
     17017, 94.851008793189266, 0.11788896477672645},
    {"dynamic_sparse_permanent",
     {4, 0, 0, 1, 0, 0, 0, 40},
     272, 16,
     {{"comm.allreduce.psr.invocations", 32},
      {"comm.allreduce.psr.messages", 96},
      {"comm.allreduce.psr.rounds", 48},
      {"comm.intra.bcast.messages", 32},
      {"comm.intra.reduce.messages", 32}},
     10594, 103.63764946146284, 0.0024024855590995885},
    {"dynamic_sparse_leader",
     {0, 1, 2, 3, 0, 0, 0, 12},
     350, 16,
     {{"comm.allreduce.psr.invocations", 32},
      {"comm.allreduce.psr.messages", 120},
      {"comm.allreduce.psr.rounds", 60},
      {"comm.intra.bcast.messages", 50},
      {"comm.intra.reduce.messages", 52}},
     15592, 95.6581674595013, 0.10243204332037058},
};
// clang-format on

const FaultPinRow* FindPin(const std::string& name) {
  for (const FaultPinRow& row : kFaultPins) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

void ExpectRelNear(double actual, double expected, const char* what) {
  EXPECT_LE(std::fabs(actual - expected),
            1e-9 * std::max(std::fabs(expected), 1e-300))
      << what << ": actual " << actual << ", expected " << expected;
}

class FaultPin : public ::testing::TestWithParam<FaultPinCase> {};

TEST_P(FaultPin, RunMatchesRecordedValues) {
  const FaultPinCase& c = GetParam();
  const std::string name = FaultPinName(c);
  obs::ObsContext ctx;
  ctx.tracing = false;
  RunOptions opt = Options(16);
  opt.obs = &ctx;
  const RunResult r = PsraHgAdmm(FaultPinConfig(c)).Run(Problem(), opt);
  const std::string actual = FormatRow(name, r);

  const FaultPinRow* pin = FindPin(name);
  ASSERT_NE(pin, nullptr) << "no recorded row; actual:\n" << actual;
  EXPECT_EQ(r.faults, pin->faults) << actual;
  EXPECT_EQ(r.messages_sent, pin->messages_sent) << actual;
  EXPECT_EQ(r.iterations_run, pin->iterations_run) << actual;
  EXPECT_EQ(StructuralCounters(r.metrics), pin->counters) << actual;
  ExpectRelNear(static_cast<double>(r.elements_sent), pin->elements_sent,
                "elements_sent");
  ExpectRelNear(r.final_objective, pin->final_objective, "final_objective");
  ExpectRelNear(r.makespan, pin->makespan, "makespan");
}

std::vector<FaultPinCase> AllFaultPinCases() {
  std::vector<FaultPinCase> cases;
  for (GroupingMode g : {GroupingMode::kFlat, GroupingMode::kHierarchical,
                         GroupingMode::kDynamicGroups}) {
    for (bool sparse : {false, true}) {
      for (FaultScenario s :
           {FaultScenario::kChurn, FaultScenario::kPermanentCrash,
            FaultScenario::kLeaderDeath}) {
        cases.push_back({g, sparse, s});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, FaultPin,
                         ::testing::ValuesIn(AllFaultPinCases()),
                         [](const auto& p) { return FaultPinName(p.param); });

}  // namespace
}  // namespace psra::admm
