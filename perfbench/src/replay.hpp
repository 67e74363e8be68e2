// Traced replay of a PSRA engine run.
//
// Replay() re-executes the iteration of admm::PsraHgAdmm::Run for the
// fault-free hierarchical and dynamic-grouping configurations, built only
// from the public entry points of each module, in the engine's order:
//
//   x-update      ProximalLogistic::SetRho/SetIterationTerms, TronMinimize,
//                 WLocal per worker (pooled over workers)
//   ledger        ComputeMultiplier + CostModel::ComputeTime + TimeLedger
//   intra reduce  comm::ReduceToLeader per node (pooled over nodes)
//   grouping      wlg::RunGroupingCycle (dynamic) or the fixed single group
//   inter reduce  leader snapshot, SparseVector::AssignFromDense,
//                 AllreduceAlgorithm::Reduce{Sparse,Dense} over a rebound
//                 GroupComm, SparseVector::ToDense (pooled over groups)
//   broadcast     comm::BroadcastFromLeader per node
//   z/y update    WorkerSet::ZYStep / ZYStepFrom (pooled)
//   residuals     WorkerSet::ComputeResiduals + MeanZInto
//
// With spans on, every call into a layer is timed by a span on the calling
// thread; pooled calls are timed as one span around their ParallelFor, and
// the x-update also keeps per-worker and per-thread busy clocks. The final
// consensus vector and traffic counters must equal the engine's bitwise.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "admm/psra_hgadmm.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Per-iteration layer measurements of a traced replay.
enum Layer : int {
  kIteration,        // whole iteration (span)
  kXUpdate,          // x-update region wall (span)
  kXUpdateBusy,      // summed per-worker TronMinimize + WLocal seconds
  kLedger,           // virtual-time ledger charges and pricing (spans)
  kIntra,            // ReduceToLeader busy + BroadcastFromLeader (span)
  kGrouping,         // grouping cycle (span)
  kSparsify,         // leader snapshot + AssignFromDense + ToDense busy
  kAllreduce,        // inter-leader Reduce{Sparse,Dense} busy
  kZy,               // z/y update region wall (span)
  kResidual,         // ComputeResiduals + MeanZInto (span)
  kUnattributed,     // iteration span minus its child spans
  kNumLayers
};

const char* LayerName(Layer layer);

struct ReplayOptions {
  std::uint64_t iterations = 0;
  psra::solver::TronOptions tron;
  psra::engine::ThreadPool* pool = nullptr;
  /// Time every layer call. Off, the replay runs the same calls untimed
  /// (the baseline for the tracing overhead).
  bool spans = false;
  /// When non-null (and spans are on), the main-thread spans of the run are
  /// copied here at the end, one track, host seconds from the replay start.
  psra::obs::SpanTracer* trace_out = nullptr;
};

struct ReplayResult {
  psra::linalg::DenseVector final_z;
  std::uint64_t iterations = 0;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
  std::uint64_t groups_formed = 0;
  double wall_s = 0.0;

  // Filled only with spans on.
  /// ms per iteration, one entry per iteration, for every Layer.
  std::array<std::vector<double>, kNumLayers> layer_ms;
  std::uint64_t tron_iterations = 0;  // summed over every worker solve
  std::uint64_t cg_iterations = 0;
  std::uint64_t solves = 0;
  double x_flops = 0.0;          // FlopCounter flops of the x-updates
  double x_busy_s = 0.0;         // summed per-worker x-update seconds
  double x_region_s = 0.0;       // summed x-update region wall
  std::vector<double> x_thread_busy_s;  // x-update busy seconds per thread
};

/// Replays `options.iterations` iterations of PsraHgAdmm(config) on
/// `problem`. Requires hierarchical or dynamic grouping on one rack, an
/// empty fault plan, no censoring and no mixed precision.
ReplayResult Replay(const psra::admm::ConsensusProblem& problem,
                    const psra::admm::PsraConfig& config,
                    const ReplayOptions& options);

}  // namespace perfbench
