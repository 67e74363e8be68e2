// The benchmark's workloads: one problem profile and one PSRA engine
// configuration each. README.md gives the reason for every choice.
#pragma once

#include <cstdint>
#include <string>

#include "admm/psra_hgadmm.hpp"
#include "data/synthetic.hpp"
#include "solver/tron.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  const char* why;
  const char* dataset;  // data::ProfileByName key
  double scale;
  std::uint32_t nodes;
  std::uint32_t workers_per_node;
  psra::admm::GroupingMode grouping;
  psra::comm::AllreduceKind allreduce;
  bool sparse_comm;
  /// Iterations of one traced engine run: past the iteration where the
  /// residuals reach the time-to-solution tolerance, with margin for other
  /// seeds.
  std::uint64_t run_iterations;
  /// Iterations of one timed end-to-end run: short enough that a run of
  /// the benchmark covers several problem instances.
  std::uint64_t timed_iterations;
};

inline constexpr Workload kWorkloads[] = {
    {"news20-dyn",
     "wide shards (64 x 13.5k): x-update bound by O(d) dense TRON/CG vector "
     "ops; the full system with dynamic WLG groups and sparse PSR",
     "news20", 0.01, 8, 4, psra::admm::GroupingMode::kDynamicGroups,
     psra::comm::AllreduceKind::kPsr, true, 450, 100},
    {"smoke1k-dyn",
     "1,024 tiny shards: per-call overhead in the PSR sparse fold, WLG "
     "grouping over 256 leaders, ledger pricing and dispatch",
     "smoke", 1.0, 256, 4, psra::admm::GroupingMode::kDynamicGroups,
     psra::comm::AllreduceKind::kPsr, true, 400, 100},
    {"urltall-hier",
     "tall shards (1,250 x 193): SpMV-bound x-update, fixed hierarchical "
     "grouping, dense ring allreduce, no WLG",
     "url_tall", 0.01, 8, 2, psra::admm::GroupingMode::kHierarchical,
     psra::comm::AllreduceKind::kRing, false, 150, 150},
};

inline const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Problem generation spec: the profile at the workload's scale, with the
/// benchmark seed.
inline psra::data::SyntheticSpec MakeSpec(const Workload& w,
                                          std::uint64_t seed) {
  auto spec = psra::data::ProfileByName(w.dataset, w.scale);
  spec.seed = seed;
  return spec;
}

/// Engine configuration; the cluster seed (compute jitter, leader election)
/// is the benchmark seed too. No faults, stragglers or rack structure.
inline psra::admm::PsraConfig MakeConfig(const Workload& w,
                                         std::uint64_t seed) {
  psra::admm::PsraConfig cfg;
  cfg.cluster.num_nodes = w.nodes;
  cfg.cluster.workers_per_node = w.workers_per_node;
  cfg.cluster.seed = seed;
  cfg.grouping = w.grouping;
  cfg.allreduce = w.allreduce;
  cfg.sparse_comm = w.sparse_comm;
  return cfg;
}

/// The inexact x-subproblem solve every figure harness uses (10 TRON
/// iterations of at most 10 CG steps, gradient tolerance 1e-2).
inline psra::solver::TronOptions BenchTron() {
  psra::solver::TronOptions t;
  t.max_iterations = 10;
  t.max_cg_iterations = 10;
  t.gradient_tolerance = 1e-2;
  return t;
}

}  // namespace perfbench
