#include "admm/psra_hgadmm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "admm/checkpoint.hpp"
#include "admm/instrument.hpp"
#include "comm/hierarchical.hpp"
#include "comm/intranode.hpp"
#include "linalg/sparse_vector.hpp"
#include "simnet/fault.hpp"
#include "solver/metrics.hpp"
#include "support/log.hpp"
#include "support/status.hpp"
#include "wlg/group_generator.hpp"
#include "wlg/leader.hpp"

namespace psra::admm {

std::string GroupingModeName(GroupingMode mode) {
  switch (mode) {
    case GroupingMode::kFlat: return "flat";
    case GroupingMode::kHierarchical: return "hierarchical";
    case GroupingMode::kDynamicGroups: return "dynamic";
  }
  return "?";
}

PsraHgAdmm::PsraHgAdmm(const PsraConfig& config) : cfg_(config) {
  PSRA_REQUIRE(config.cluster.num_nodes >= 1 &&
                   config.cluster.workers_per_node >= 1,
               "empty cluster");
}

std::string PsraHgAdmm::Name() const {
  const auto alg = MakeAllreduce(cfg_.allreduce)->Name();
  switch (cfg_.grouping) {
    case GroupingMode::kFlat: return "PSRA-ADMM(" + alg + ")";
    case GroupingMode::kHierarchical: return "HGADMM-nogroup(" + alg + ")";
    case GroupingMode::kDynamicGroups: return "PSRA-HGADMM(" + alg + ")";
  }
  return "?";
}

namespace {

/// Per-run workspace for the inter-node allreduce: sparse conversion
/// buffers, the collective's scratch, and the result fields. One instance
/// lives across all iterations of Run, so the steady-state exchange is
/// allocation-free.
struct InterWorkspace {
  comm::AllreduceScratch scratch;
  comm::CommStats stats;
  std::vector<linalg::SparseVector> sparse_inputs;
  linalg::SparseVector sparse_sum;
  /// Dense group sum (the aggregate W); finish times live in stats.
  linalg::DenseVector sum;
  std::size_t elements = 0;
  std::size_t messages = 0;
  std::size_t result_nnz = 0;
};

/// Hoisted per-collective metric slots (stable MetricsRegistry references).
/// Null `invocations` means "not recording"; `fill` is set only for sparse
/// payloads (it observes result_nnz / dim per invocation).
struct ArMetrics {
  std::uint64_t* invocations = nullptr;
  std::uint64_t* elements = nullptr;
  std::uint64_t* messages = nullptr;
  std::uint64_t* bytes = nullptr;
  std::uint64_t* rounds = nullptr;
  obs::Histogram* fill = nullptr;
  double dim = 1.0;
};

/// Every metric slot the PSRA engine updates, hoisted once per run so the
/// per-iteration updates are plain integer adds.
struct PsraMetrics {
  ArMetrics ar;
  obs::Histogram* group_size = nullptr;
  obs::Histogram* gg_wait_s = nullptr;
  obs::Histogram* recovery_s = nullptr;
  std::uint64_t* gg_reports = nullptr;
  std::uint64_t* gg_notifies = nullptr;
  std::uint64_t* groups_formed = nullptr;
  std::uint64_t* intra_reduce_elements = nullptr;
  std::uint64_t* intra_reduce_messages = nullptr;
  std::uint64_t* intra_reduce_bytes = nullptr;
  std::uint64_t* intra_bcast_elements = nullptr;
  std::uint64_t* intra_bcast_messages = nullptr;
  std::uint64_t* intra_bcast_bytes = nullptr;
  std::uint64_t* rack_bcast_elements = nullptr;
  std::uint64_t* rack_bcast_messages = nullptr;
  std::uint64_t* rack_bcast_bytes = nullptr;

  /// Multi-rack runs only: the rack leaders' redistribution of the global
  /// sum (stage 3 of the recursive collective). Hoisted separately so
  /// single-rack runs keep their metric key set unchanged.
  void HoistRack(obs::MetricsRegistry& m) {
    rack_bcast_elements = &m.Counter("comm.rack.bcast.elements");
    rack_bcast_messages = &m.Counter("comm.rack.bcast.messages");
    rack_bcast_bytes = &m.Counter("comm.rack.bcast.bytes");
  }

  void Hoist(obs::MetricsRegistry& m, const std::string& alg_name, bool sparse,
             double dim) {
    const std::string p = "comm.allreduce." + alg_name + ".";
    ar.invocations = &m.Counter(p + "invocations");
    ar.elements = &m.Counter(p + "elements");
    ar.messages = &m.Counter(p + "messages");
    ar.bytes = &m.Counter(p + "bytes");
    ar.rounds = &m.Counter(p + "rounds");
    if (sparse) {
      static constexpr double kFillBounds[] = {0.01, 0.05, 0.1, 0.25,
                                               0.5,  0.75, 0.9, 1.0};
      ar.fill = &m.Histo("comm.allreduce.fill_ratio", kFillBounds);
      ar.dim = dim;
    }
    static constexpr double kSizeBounds[] = {1, 2, 4, 8, 16, 32};
    static constexpr double kTimeBounds[] = {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    group_size = &m.Histo("wlg.group_size", kSizeBounds);
    gg_wait_s = &m.Histo("wlg.gg_wait_s", kTimeBounds);
    recovery_s = &m.Histo("fault.recovery_latency_s", kTimeBounds);
    gg_reports = &m.Counter("comm.gg.reports");
    gg_notifies = &m.Counter("comm.gg.notifies");
    groups_formed = &m.Counter("wlg.groups_formed");
    intra_reduce_elements = &m.Counter("comm.intra.reduce.elements");
    intra_reduce_messages = &m.Counter("comm.intra.reduce.messages");
    intra_reduce_bytes = &m.Counter("comm.intra.reduce.bytes");
    intra_bcast_elements = &m.Counter("comm.intra.bcast.elements");
    intra_bcast_messages = &m.Counter("comm.intra.bcast.messages");
    intra_bcast_bytes = &m.Counter("comm.intra.bcast.bytes");
  }
};

/// Hoisted convergence-timeline series (DESIGN.md §13) plus the cumulative
/// counter values at the previous row, which turn the registry's running
/// totals into per-iteration deltas. Series handles are stable for the
/// ObsContext's lifetime, so appends are plain stores.
struct PsraSeries {
  obs::TimeSeries* primal = nullptr;
  obs::TimeSeries* dual = nullptr;
  obs::TimeSeries* objective = nullptr;
  obs::TimeSeries* rho = nullptr;
  obs::TimeSeries* active_groups = nullptr;
  obs::TimeSeries* regroups = nullptr;
  obs::TimeSeries* bytes = nullptr;
  obs::TimeSeries* rounds = nullptr;
  std::uint64_t prev_invocations = 0;
  std::uint64_t prev_groups = 0;
  std::uint64_t prev_bytes = 0;
  std::uint64_t prev_rounds = 0;

  void Hoist(EngineObs& eo) {
    primal = eo.Series("ts.primal_residual");
    dual = eo.Series("ts.dual_residual");
    objective = eo.Series("ts.objective");
    rho = eo.Series("ts.rho");
    active_groups = eo.Series("ts.active_groups");
    regroups = eo.Series("ts.regroup_events");
    bytes = eo.Series("ts.bytes");
    rounds = eo.Series("ts.rounds");
  }

  /// Cumulative collective payload bytes across the engine's channels
  /// (inter-group allreduce + intra-node reduce/bcast + rack bcast).
  std::uint64_t BytesNow(const PsraMetrics& pm) const {
    std::uint64_t b = *pm.ar.bytes + *pm.intra_reduce_bytes +
                      *pm.intra_bcast_bytes;
    if (pm.rack_bcast_bytes != nullptr) b += *pm.rack_bcast_bytes;
    return b;
  }
};

/// Folds one collective invocation's stats into the hoisted metric slots.
/// Split out of RunInterAllreduce so the batched path can run collectives in
/// parallel and replay the registry updates serially, in formation order.
void AccumulateArMetrics(ArMetrics& am, const InterWorkspace& ws) {
  ++*am.invocations;
  *am.elements += ws.stats.elements_sent;
  *am.messages += ws.stats.messages_sent;
  *am.bytes += ws.stats.bytes_sent;
  *am.rounds += ws.stats.rounds;
  if (am.fill != nullptr) {
    am.fill->Observe(static_cast<double>(ws.result_nnz) / am.dim);
  }
}

/// Runs one inter-node allreduce over `w_inputs` (one dense vector per group
/// member), leaving the dense sum and per-member finish times in `ws`. With
/// a FaultContext the fault-tolerant entry points run instead (exactly the
/// plain ones when the plan is empty).
void RunInterAllreduce(const comm::GroupComm& group,
                       const comm::AllreduceAlgorithm& alg, bool sparse_comm,
                       std::span<const linalg::DenseVector> w_inputs,
                       std::span<const simnet::VirtualTime> starts,
                       InterWorkspace& ws, comm::FaultContext* fc = nullptr,
                       ArMetrics* am = nullptr) {
  if (sparse_comm) {
    ws.sparse_inputs.resize(w_inputs.size());
    for (std::size_t i = 0; i < w_inputs.size(); ++i) {
      ws.sparse_inputs[i].AssignFromDense(w_inputs[i]);
    }
    if (fc != nullptr) {
      alg.ReduceSparseFaulty(group, ws.sparse_inputs, starts, *fc, ws.scratch,
                             ws.sparse_sum, ws.stats);
    } else {
      alg.ReduceSparse(group, ws.sparse_inputs, starts, ws.scratch,
                       ws.sparse_sum, ws.stats);
    }
    ws.sparse_sum.ToDense(ws.sum);
    ws.result_nnz = ws.sparse_sum.nnz();
  } else {
    if (fc != nullptr) {
      alg.ReduceDenseFaulty(group, w_inputs, starts, *fc, ws.scratch, ws.sum,
                            ws.stats);
    } else {
      alg.ReduceDense(group, w_inputs, starts, ws.scratch, ws.sum, ws.stats);
    }
    ws.result_nnz = ws.sum.size();
  }
  ws.elements = ws.stats.elements_sent;
  ws.messages = ws.stats.messages_sent;
  if (am != nullptr) AccumulateArMetrics(*am, ws);
}

/// Multi-rack counterpart of RunInterAllreduce: the recursive node -> rack
/// -> cluster collective fills the same InterWorkspace contract (global sum,
/// per-leader finish times, traffic totals), so the batched replay below
/// consumes either interchangeably.
void RunMultiLevelAllreduce(comm::MultiLevelAllreduce& ml,
                            const comm::AllreduceAlgorithm& alg,
                            bool sparse_comm,
                            std::span<const linalg::DenseVector> w_inputs,
                            std::span<const simnet::VirtualTime> starts,
                            InterWorkspace& ws) {
  if (sparse_comm) {
    ws.sparse_inputs.resize(w_inputs.size());
    for (std::size_t i = 0; i < w_inputs.size(); ++i) {
      ws.sparse_inputs[i].AssignFromDense(w_inputs[i]);
    }
    ml.ReduceSparse(alg, ws.sparse_inputs, starts, ws.scratch, ws.sparse_sum,
                    ws.stats);
    ws.sparse_sum.ToDense(ws.sum);
    ws.result_nnz = ws.sparse_sum.nnz();
  } else {
    ml.ReduceDense(alg, w_inputs, starts, ws.scratch, ws.sum, ws.stats);
    ws.result_nnz = ws.sum.size();
  }
  ws.elements = ws.stats.elements_sent;
  ws.messages = ws.stats.messages_sent;
}

/// One formed group's collective context: the member leaders, their input
/// snapshots and start times, the communicator, and the allreduce workspace.
/// Slots are recycled across regrouping cycles by GroupSlotArena below, so a
/// steady-state iteration leases fully warmed buffers.
struct GroupSlot {
  InterWorkspace iw;
  std::vector<simnet::Rank> leaders;        // member leaders, group order
  std::vector<linalg::DenseVector> inputs;  // leader aggregate snapshots
  std::vector<simnet::VirtualTime> starts;
  std::optional<comm::GroupComm> comm;  // rebound in place on reuse
  std::span<const simnet::NodeId> members;  // view into the cycle's batch
  simnet::VirtualTime start = 0.0;          // earliest collective start
  std::uint64_t contributors = 0;           // workers behind the group sum
  double wall = 0.0;  // measured host seconds of the collective (traced)
};

/// Size-keyed free lists of GroupSlots. Dynamic grouping re-forms groups
/// every iteration but the multiset of group SIZES is fixed by the threshold
/// arithmetic, so leasing by size hands every group a slot whose buffers
/// (scratch, inputs, communicator storage) already have exactly the right
/// capacity — zero allocations once each size has been seen once.
class GroupSlotArena {
 public:
  explicit GroupSlotArena(std::size_t max_groups) {
    leased_.reserve(max_groups);
    leased_sizes_.reserve(max_groups);
  }

  GroupSlot& Lease(std::size_t group_size) {
    if (free_.size() <= group_size) free_.resize(group_size + 1);
    auto& bucket = free_[group_size];
    if (bucket.empty()) {
      slots_.push_back(std::make_unique<GroupSlot>());
      bucket.push_back(slots_.size() - 1);
    }
    const std::size_t idx = bucket.back();
    bucket.pop_back();
    leased_.push_back(idx);
    leased_sizes_.push_back(group_size);
    return *slots_[idx];
  }

  /// Returns every leased slot to its size bucket (end of iteration).
  void RecycleAll() {
    for (std::size_t k = 0; k < leased_.size(); ++k) {
      free_[leased_sizes_[k]].push_back(leased_[k]);
    }
    leased_.clear();
    leased_sizes_.clear();
  }

 private:
  std::vector<std::unique_ptr<GroupSlot>> slots_;
  std::vector<std::vector<std::size_t>> free_;  // indexed by group size
  std::vector<std::size_t> leased_;
  std::vector<std::size_t> leased_sizes_;
};

}  // namespace

RunResult PsraHgAdmm::Run(const ConsensusProblem& problem,
                          const RunOptions& options) const {
  const simnet::Topology topo(cfg_.cluster.num_nodes,
                              cfg_.cluster.workers_per_node,
                              cfg_.cluster.num_racks);
  PSRA_REQUIRE(problem.num_workers() == topo.world_size(),
               "problem must be partitioned into one shard per worker");
  const simnet::CostModel cost(cfg_.cluster.cost);
  const simnet::StragglerModel stragglers(topo, cfg_.cluster.straggler);
  const simnet::FaultPlan faults(cfg_.cluster.fault);
  const bool faulty = !faults.Empty();
  // With several racks the fixed hierarchical group runs its leader
  // collective recursively (per rack, then across rack leaders). Flat and
  // dynamic grouping still work across racks — their collectives simply pay
  // kInterRack link costs where members straddle racks.
  const bool multi_rack = topo.num_racks() > 1 &&
                          cfg_.grouping == GroupingMode::kHierarchical;
  PSRA_REQUIRE(!(multi_rack && faulty),
               "the recursive multi-rack collective does not support fault "
               "injection; use one rack (or flat/dynamic grouping)");

  const auto world = static_cast<std::size_t>(topo.world_size());
  const auto nodes = cfg_.cluster.num_nodes;
  const std::uint32_t threshold =
      cfg_.group_threshold != 0 ? cfg_.group_threshold
                                : std::max<std::uint32_t>(1, nodes / 2);

  WorkerSet ws(&problem, &options);
  // Warm start: seed (x, y, z, rho) from a restored checkpoint and resume
  // right after its iteration; 1 (a cold start) otherwise.
  const std::uint64_t first_iter = ApplyWarmStart(ws, options) + 1;
  engine::TimeLedger ledger(world);
  const auto alg = MakeAllreduce(cfg_.allreduce);

  RunResult result;
  result.algorithm = Name();

  // ---- Observability -----------------------------------------------------
  // Every instrumentation site below sits behind eo.on() / eo.tracing() (a
  // single pointer test with no sink installed), and only OBSERVES ledger
  // clocks and collective stats — an instrumented run is bitwise-identical
  // to an uninstrumented one (pinned by test_obs).
  EngineObs eo(options.obs, world);
  PsraMetrics pm;
  PsraSeries conv;
  obs::TrackId gg_track = 0;
  if (eo.on()) {
    pm.Hoist(eo.metrics(), alg->Name(), cfg_.sparse_comm,
             static_cast<double>(problem.dim()));
    if (multi_rack) pm.HoistRack(eo.metrics());
    conv.Hoist(eo);
    if (cfg_.grouping == GroupingMode::kDynamicGroups) {
      gg_track = eo.AddAuxTrack("group generator");
    }
  }

  // Per-node structures: member ranks, leader, intra-node communicator.
  std::vector<std::vector<simnet::Rank>> node_ranks(nodes);
  std::vector<simnet::Rank> leaders(nodes);
  std::vector<comm::GroupComm> intra;
  intra.reserve(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) {
    node_ranks[n] = topo.RanksOnNode(n);
    leaders[n] = wlg::ElectLeader(topo, node_ranks[n], cfg_.leader_policy,
                                  cfg_.cluster.seed);
    intra.emplace_back(&topo, &cost, node_ranks[n]);
  }
  // Inter-node transfers optionally run in mixed precision: fp32 values on
  // the wire (4 bytes) instead of fp64.
  simnet::CostModelConfig inter_cost_cfg = cfg_.cluster.cost;
  if (cfg_.mixed_precision) inter_cost_cfg.value_bytes = 4;
  const simnet::CostModel cost_inter(inter_cost_cfg);
  // Recursive node -> rack -> cluster collective over the leaders (the
  // hierarchical group has fixed membership, so this is built once).
  std::optional<comm::MultiLevelAllreduce> mlar;
  if (multi_rack) mlar.emplace(&topo, &cost_inter, leaders);

  wlg::GroupGenerator gg(threshold, nodes);
  const simnet::VirtualTime request_cost =
      cost.LatencyOf(simnet::Link::kInterNode) +
      static_cast<double>(cfg_.request_bytes) /
          cost.BandwidthOf(simnet::Link::kInterNode) +
      cfg_.gg_service_time_s;

  std::vector<double> flops(world, 0.0);
  linalg::DenseVector z_prev_mean(static_cast<std::size_t>(problem.dim()),
                                  0.0);
  // Warm start: the dual-residual reference is the restored consensus mean —
  // exactly what the uninterrupted run holds entering this iteration — so a
  // split run's residuals (and timeline rows) match the full run's.
  if (first_iter > 1) ws.MeanZInto(z_prev_mean);

  // ---- Hoisted per-run workspaces --------------------------------------
  // Everything a steady-state iteration needs is sized here (or on first
  // use) and recycled, so the flat dense hot path performs no heap
  // allocations after warm-up.
  InterWorkspace iw;
  std::vector<simnet::Rank> everyone(world);
  for (std::size_t i = 0; i < world; ++i) {
    everyone[i] = static_cast<simnet::Rank>(i);
  }
  std::optional<comm::GroupComm> flat_global;
  if (cfg_.grouping == GroupingMode::kFlat) {
    flat_global.emplace(&topo, &cost_inter, everyone);
  }
  std::vector<linalg::DenseVector> inputs;  // member w snapshots
  std::vector<simnet::VirtualTime> starts;
  // Hierarchical-path scratch.
  std::vector<comm::ReduceResult> red(nodes);
  comm::BroadcastResult bc;
  std::vector<simnet::VirtualTime> leader_ready(nodes);
  std::vector<simnet::VirtualTime> report(nodes);
  std::vector<std::pair<std::vector<simnet::NodeId>, simnet::VirtualTime>>
      groups;
  std::vector<simnet::Rank> group_leaders(nodes);
  std::vector<linalg::DenseVector> ginputs(nodes);
  std::vector<simnet::VirtualTime> gstarts(nodes);
  // Batched non-faulty hierarchical/dynamic path: the pooled group
  // lifecycle (cycle batch + size-keyed collective slots) and the flattened
  // cross-group consensus-update work list.
  const auto wpn = static_cast<std::size_t>(cfg_.cluster.workers_per_node);
  wlg::GroupWorkspace gws;
  gws.groups.Reserve(nodes);
  std::vector<simnet::NodeId> all_nodes(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) all_nodes[n] = n;
  std::vector<simnet::VirtualTime> all_starts(world);
  GroupSlotArena garena(nodes);
  std::vector<GroupSlot*> gslots;
  gslots.reserve(nodes);
  std::vector<simnet::Rank> zy_first;  // per group: the worker computing z
  std::vector<simnet::Rank> zy_copy_w, zy_copy_src;  // flattened copy pairs
  zy_first.reserve(nodes);
  zy_copy_w.reserve(world);
  zy_copy_src.reserve(world);
  std::vector<double> xw_wall;  // per-worker x-update host seconds (traced)
  std::vector<double> red_wall;  // per-node intra-reduce host seconds
  std::vector<double> zy_wall;   // per-worker consensus-update host seconds
  if (options.obs != nullptr && options.obs->tracing) {
    xw_wall.assign(world, 0.0);
    red_wall.assign(nodes, 0.0);
    zy_wall.assign(world, 0.0);
  }

  // Communication censoring (COLA-ADMM style): senders ship deltas against
  // their last transmission and skip negligible ones; every participant
  // folds the aggregated deltas into a shared running sum.
  const bool censoring = cfg_.censor_threshold > 0.0;
  PSRA_REQUIRE(!censoring || cfg_.grouping != GroupingMode::kDynamicGroups,
               "censoring requires fixed membership (kFlat/kHierarchical)");
  const std::size_t num_senders =
      cfg_.grouping == GroupingMode::kFlat ? world : nodes;
  const auto d_sz = static_cast<std::size_t>(problem.dim());
  std::vector<linalg::DenseVector> last_sent;
  linalg::DenseVector W_running;
  if (censoring) {
    last_sent.assign(num_senders, linalg::DenseVector(d_sz, 0.0));
    W_running.assign(d_sz, 0.0);
  }
  // Replaces the sender's raw aggregate with its delta (or zero when
  // censored) and reports whether it was censored.
  linalg::DenseVector censor_scratch;
  auto apply_censoring = [&](std::size_t sender, std::uint64_t iter,
                             linalg::DenseVector& value) {
    linalg::Subtract(value, last_sent[sender], censor_scratch);
    const double tau = cfg_.censor_threshold *
                       std::pow(cfg_.censor_decay, static_cast<double>(iter));
    if (linalg::Norm2(censor_scratch) < tau) {
      linalg::SetZero(censor_scratch);
      value = censor_scratch;
      ++result.censored_sends;
      return;
    }
    last_sent[sender] = value;
    value = censor_scratch;
  };

  PSRA_REQUIRE(!(censoring && faulty),
               "communication censoring is incompatible with fault injection "
               "(its running sum needs every sender in every round)");

  // ---- Fault-injection state -------------------------------------------
  // Only touched on faulty runs: with an empty plan the iteration body below
  // takes byte-for-byte the fault-free path (pinned by test_determinism).
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  comm::FaultContext fctx;
  fctx.plan = faulty ? &faults : nullptr;
  RunCheckpoint ckpt;
  std::vector<char> down_now;        // 1 = worker currently down
  std::vector<std::uint64_t> up_at;  // recovery iteration (kNever = none)
  std::vector<simnet::Rank> alive;
  std::vector<std::vector<simnet::Rank>> node_alive;
  std::vector<std::optional<comm::GroupComm>> intra_alive;
  std::vector<simnet::Rank> cur_leaders;
  std::vector<char> node_active;  // node has >= 1 alive worker
  std::vector<char> node_out;     // node dropped from the current round
  std::vector<wlg::LeaderReport> leader_reports;
  std::vector<simnet::NodeId> active_nodes;
  std::optional<comm::GroupComm> flat_sub;  // survivor group, flat mode
  std::vector<simnet::Rank> zy_ranks;
  std::vector<simnet::NodeId> live_members;
  if (faulty) {
    down_now.assign(world, 0);
    up_at.assign(world, kNever);
    node_alive.assign(nodes, {});
    intra_alive.assign(nodes, std::nullopt);
    cur_leaders = leaders;
    node_active.assign(nodes, 1);
    node_out.assign(nodes, 0);
    alive.reserve(world);
    // Iteration-0 checkpoint: a worker crashing before the first periodic
    // capture restarts from the common initial state.
    CaptureRunCheckpoint(ws, 0, everyone, ckpt,
                         eo.on() ? &eo.metrics() : nullptr);
  }
  // A recovering worker refetches its checkpointed vectors (x, y, z) over
  // the network on top of the fixed respawn delay.
  const simnet::VirtualTime recovery_transfer =
      cost.DenseTransferTime(simnet::Link::kInterNode, 3 * d_sz);
  // The elected leader of node `n` dies mid-round: it drops out of the rest
  // of this iteration and stays down like a crashed worker afterwards.
  auto kill_leader_mid_round = [&](simnet::NodeId n,
                                   const simnet::LeaderDeathSpec& death,
                                   std::uint64_t it) {
    const auto li = static_cast<std::size_t>(cur_leaders[n]);
    down_now[li] = 1;
    up_at[li] =
        death.down_iterations == 0 ? kNever : it + 1 + death.down_iterations;
    node_out[n] = 1;
    ++result.faults.leader_deaths;
    PSRA_SLOG(kWarn, "fault").At(ledger[li].clock)
        << "leader " << li << " of node " << n << " died mid-round, iter "
        << it;
  };

  // Baseline the delta-series counters on whatever setup traffic is already
  // booked, so every ts.* delta is pure per-iteration traffic — which is
  // what makes a warm-started run's rows match the uninterrupted run's.
  if (eo.on()) {
    conv.prev_invocations = *pm.ar.invocations;
    conv.prev_groups = *pm.groups_formed;
    conv.prev_bytes = conv.BytesNow(pm);
    conv.prev_rounds = *pm.ar.rounds;
  }

  for (std::uint64_t iter = first_iter; iter <= options.max_iterations;
       ++iter) {
    result.iterations_run = iter;
    eo.MarkAll(ledger);

    // ---- Fault bookkeeping: recoveries, fresh crashes, per-node views ----
    bool any_down = false;
    if (faulty) {
      fctx.iteration = iter;
      fctx.channel = 0;
      for (std::size_t i = 0; i < world; ++i) {
        const auto r = static_cast<simnet::Rank>(i);
        if (down_now[i] != 0 && up_at[i] == iter) {
          // Crash-restart: restore the last checkpoint, pay the respawn
          // delay plus the virtual transfer of the checkpointed vectors.
          // Dead time itself is skipped, not booked — it is neither
          // computation nor communication.
          const WorkerCheckpoint& wc = ckpt.workers[i];
          ws.RestoreWorker(i, wc.x, wc.y, wc.z);
          ledger.SkipUntil(i, ledger.MaxClock());
          ledger.ChargeCompute(i, cfg_.cluster.fault.restart_delay_s);
          ledger.ChargeComm(i, recovery_transfer);
          down_now[i] = 0;
          up_at[i] = kNever;
          ++result.faults.recoveries;
          PSRA_SLOG(kInfo, "fault").At(ledger[i].clock)
              << "worker " << i << " recovered from checkpoint at iter "
              << iter;
          if (eo.on()) {
            pm.recovery_s->Observe(ledger[i].clock - eo.mark(i));
            eo.Span("fault_recover", ledger, i, iter);
          }
        }
        if (const auto crash = faults.CrashAt(r, iter);
            crash && down_now[i] == 0) {
          down_now[i] = 1;
          up_at[i] = crash->down_iterations == 0
                         ? kNever
                         : iter + crash->down_iterations;
          ++result.faults.worker_crashes;
          PSRA_SLOG(kWarn, "fault").At(ledger[i].clock)
              << "worker " << i << " crashed at iter " << iter
              << (crash->down_iterations == 0
                      ? " (permanent)"
                      : " (crash-restart)");
        }
        if (down_now[i] != 0) {
          any_down = true;
          ++result.faults.down_worker_iterations;
        }
      }
      alive.clear();
      for (std::size_t i = 0; i < world; ++i) {
        if (down_now[i] == 0) alive.push_back(static_cast<simnet::Rank>(i));
      }
      PSRA_REQUIRE(!alive.empty(), "fault plan left no live worker");
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        node_alive[n].clear();
        for (const simnet::Rank r : node_ranks[n]) {
          if (down_now[static_cast<std::size_t>(r)] == 0) {
            node_alive[n].push_back(r);
          }
        }
        node_active[n] = node_alive[n].empty() ? 0 : 1;
        node_out[n] = 0;
        if (node_active[n] == 0) continue;
        simnet::Rank lead = leaders[n];
        if (down_now[static_cast<std::size_t>(lead)] != 0) {
          lead = wlg::ReElectLeader(topo, node_alive[n], cfg_.leader_policy,
                                    cfg_.cluster.seed, iter);
        }
        if (lead != cur_leaders[n]) {
          ++result.faults.leader_reelections;
          PSRA_SLOG(kInfo, "wlg")
              .At(ledger[static_cast<std::size_t>(lead)].clock)
              << "node " << n << " re-elected leader " << lead << " (was "
              << cur_leaders[n] << ") at iter " << iter;
          cur_leaders[n] = lead;
        }
        if (!intra_alive[n].has_value() ||
            intra_alive[n]->members() != node_alive[n]) {
          intra_alive[n].emplace(&topo, &cost, node_alive[n]);
        }
      }
    }

    // ---- x / w updates (parallel local computation, paper Alg. 1) --------
    // On traced runs each worker's host seconds are measured inside the
    // pooled loop (per-thread stopwatches), so the trace attributes wall
    // time to the worker that spent it rather than an even split.
    std::vector<double>* const wall = eo.tracing() ? &xw_wall : nullptr;
    if (faulty && any_down) {
      ws.XWStepAll(alive, flops, wall);
      for (const simnet::Rank r : alive) {
        const auto i = static_cast<std::size_t>(r);
        const double mult =
            ComputeMultiplier(cfg_.cluster, topo, stragglers, r, iter);
        ledger.ChargeCompute(i, cost.ComputeTime(flops[i]) * mult);
      }
    } else {
      ws.XWStepAll(flops, wall);
      for (std::size_t i = 0; i < world; ++i) {
        const double mult = ComputeMultiplier(
            cfg_.cluster, topo, stragglers, static_cast<simnet::Rank>(i), iter);
        ledger.ChargeCompute(i, cost.ComputeTime(flops[i]) * mult);
      }
    }
    if (wall != nullptr) {
      eo.SpanAllWall("x_update", ledger, iter, xw_wall);
    } else {
      eo.SpanAll("x_update", ledger, iter);
    }

    if (cfg_.grouping == GroupingMode::kFlat) {
      // ---- PSRA-ADMM: one global allreduce over all workers --------------
      // The collective only reads its inputs, so the workers' w vectors go
      // in directly; a private snapshot is taken only when mixed precision
      // or censoring must rewrite the payload first. On faulty runs with a
      // worker down, the collective degrades to the survivor set.
      comm::FaultContext* const fc = faulty ? &fctx : nullptr;
      const bool degraded = faulty && any_down;
      const bool mutate_inputs = cfg_.mixed_precision || censoring;
      if (degraded) {
        if (!flat_sub.has_value() || flat_sub->members() != alive) {
          flat_sub.emplace(&topo, &cost_inter, alive);
        }
        inputs.resize(alive.size());
        starts.resize(alive.size());
        for (std::size_t m = 0; m < alive.size(); ++m) {
          const auto i = static_cast<std::size_t>(alive[m]);
          inputs[m] = ws.w(i);
          if (cfg_.mixed_precision) linalg::RoundToFloat(inputs[m]);
          starts[m] = ledger[i].clock;
        }
        RunInterAllreduce(*flat_sub, *alg, cfg_.sparse_comm, inputs, starts,
                          iw, fc, eo.on() ? &pm.ar : nullptr);
      } else {
        starts.resize(world);
        if (mutate_inputs) {
          inputs.resize(world);
          for (std::size_t i = 0; i < world; ++i) {
            inputs[i] = ws.w(i);
            if (cfg_.mixed_precision) linalg::RoundToFloat(inputs[i]);
            if (censoring) apply_censoring(i, iter, inputs[i]);
          }
        }
        for (std::size_t i = 0; i < world; ++i) starts[i] = ledger[i].clock;
        RunInterAllreduce(*flat_global, *alg, cfg_.sparse_comm,
                          mutate_inputs ? std::span<const linalg::DenseVector>(
                                              inputs)
                                        : ws.w_all(),
                          starts, iw, fc, eo.on() ? &pm.ar : nullptr);
      }
      result.elements_sent += iw.elements;
      result.messages_sent += iw.messages;
      if (censoring) {
        linalg::Axpy(1.0, iw.sum, W_running);
        iw.sum = W_running;
      }
      if (degraded) {
        for (std::size_t m = 0; m < alive.size(); ++m) {
          ledger.WaitUntil(static_cast<std::size_t>(alive[m]),
                           iw.stats.finish_times[m]);
        }
      } else {
        for (std::size_t i = 0; i < world; ++i) {
          ledger.WaitUntil(i, iw.stats.finish_times[i]);
        }
      }
      if (eo.tracing()) {
        // w_allreduce on each participant's track, with the collective's
        // scatter-reduce / allgather stages nested inside where they fall
        // within the participant's own [start, finish] window.
        const simnet::VirtualTime sr = iw.stats.scatter_reduce_done;
        const std::size_t np = degraded ? alive.size() : world;
        for (std::size_t m = 0; m < np; ++m) {
          const auto i = degraded ? static_cast<std::size_t>(alive[m]) : m;
          const simnet::VirtualTime b = eo.mark(i);
          const simnet::VirtualTime e = ledger[i].clock;
          if (sr > b && sr < e) {
            eo.SpanAt("scatter_reduce", i, b, sr, iter);
            eo.SpanAt("allgather", i, sr, e, iter);
          }
          eo.Span("w_allreduce", ledger, i, iter);
        }
      }
      // Consensus update over this round's participants. Members the
      // collective excluded after exhausting retries keep their state
      // frozen for the round, like a worker that timed out.
      std::span<const simnet::Rank> participants(everyone);
      if (degraded) participants = alive;
      if (fc != nullptr && !fc->excluded.empty()) {
        zy_ranks.clear();
        std::size_t e = 0;
        for (std::size_t m = 0; m < participants.size(); ++m) {
          if (e < fc->excluded.size() &&
              fc->excluded[e] == static_cast<comm::GroupRank>(m)) {
            ++e;
            continue;
          }
          zy_ranks.push_back(participants[m]);
        }
        participants = zy_ranks;
      }
      ws.ZYStepAll(participants, iw.sum,
                   static_cast<std::uint64_t>(participants.size()), flops,
                   wall != nullptr ? &zy_wall : nullptr);
      for (const simnet::Rank r : participants) {
        ledger.ChargeCompute(static_cast<std::size_t>(r),
                             cost.ComputeTime(flops[r]));
      }
      if (eo.tracing()) {
        for (const simnet::Rank r : participants) {
          const auto i = static_cast<std::size_t>(r);
          eo.SpanWall("z_y_update", ledger, i, iter, zy_wall[i]);
        }
      }
    } else if (!faulty) {
      // ---- Hierarchical/dynamic, batched (the non-faulty hot path) --------
      // Node reductions are independent, so all of them run as ONE
      // ParallelFor over nodes. Each node's inputs are its workers' live w
      // vectors — node n owns the contiguous rank range [n*wpn, (n+1)*wpn),
      // so a subspan of w_all() replaces the per-member snapshot copies the
      // serial flow used to make. Ledger charges, metrics and spans replay
      // serially afterwards in node order, so every observable stream is
      // identical to the one-node-at-a-time flow.
      for (std::size_t i = 0; i < world; ++i) all_starts[i] = ledger[i].clock;
      const bool walled = wall != nullptr;  // measured wall attribution on
      auto reduce_node = [&](std::size_t n) {
        const double t0 = walled ? engine::ThreadPool::ThreadSeconds() : 0.0;
        const comm::GroupComm& ic = intra[n];
        const comm::GroupRank leader_g = ic.LocalRank(leaders[n]);
        comm::ReduceToLeader(
            ic, leader_g, ws.w_all().subspan(n * wpn, wpn),
            std::span<const simnet::VirtualTime>(all_starts).subspan(n * wpn,
                                                                     wpn),
            red[n]);
        if (walled) red_wall[n] = engine::ThreadPool::ThreadSeconds() - t0;
      };
      if (options.pool != nullptr) {
        options.pool->ParallelFor(static_cast<std::size_t>(nodes),
                                  reduce_node);
      } else {
        engine::SerialFor(static_cast<std::size_t>(nodes), reduce_node);
      }
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        const auto& members = node_ranks[n];
        const simnet::Rank lead = leaders[n];
        result.elements_sent += red[n].elements_sent;
        result.messages_sent += red[n].messages_sent;
        for (std::size_t m = 0; m < members.size(); ++m) {
          ledger.WaitUntil(members[m], red[n].finish_times[m]);
        }
        ledger.WaitUntil(lead, red[n].leader_ready);
        if (eo.on()) {
          *pm.intra_reduce_elements += red[n].elements_sent;
          *pm.intra_reduce_messages += red[n].messages_sent;
          *pm.intra_reduce_bytes +=
              red[n].elements_sent * cfg_.cluster.cost.value_bytes;
          if (eo.tracing()) {
            // The node's measured reduce wall is shared evenly among its
            // members (the pool thread did the whole node's reduce at once).
            const double share =
                red_wall[n] / static_cast<double>(members.size());
            for (std::size_t m = 0; m < members.size(); ++m) {
              eo.SpanWall("intra_reduce", ledger,
                          static_cast<std::size_t>(members[m]), iter, share);
            }
          }
        }
        if (censoring) apply_censoring(n, iter, red[n].value);
        leader_ready[n] = ledger[lead].clock;
      }

      // ---- Group formation into the pooled cycle batch ---------------------
      if (cfg_.grouping == GroupingMode::kHierarchical) {
        simnet::VirtualTime all_ready = 0.0;
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          all_ready = std::max(all_ready, leader_ready[n]);
        }
        gws.groups.Clear();
        gws.groups.PushGroup(all_nodes, all_ready);
      } else {
        // Leaders report to the GG (one small message each, paper Alg. 3).
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          ledger.ChargeComm(leaders[n], request_cost);
          ++result.messages_sent;
          report[n] = ledger[leaders[n]].clock;
          if (eo.on()) {
            ++*pm.gg_reports;
            eo.Span("gg_report", ledger,
                    static_cast<std::size_t>(leaders[n]), iter);
          }
        }
        wlg::RunGroupingCycle(gg, report, gws);
        for (std::size_t gi = 0; gi < gws.groups.size(); ++gi) {
          const wlg::GroupView& view = gws.groups.group(gi);
          const auto gmembers = gws.groups.members(view);
          // GG notifies the group members (one message back per leader).
          result.messages_sent += gmembers.size();
          if (eo.on()) {
            *pm.gg_notifies += gmembers.size();
            if (eo.tracing()) {
              simnet::VirtualTime first = view.formed_at;
              for (const simnet::NodeId n : gmembers) {
                first = std::min(first, report[n]);
              }
              eo.AuxSpan(gg_track, "group_form", first, view.formed_at, iter);
            }
          }
          PSRA_SLOG(kDebug, "wlg").At(view.formed_at)
              << "group of " << gmembers.size() << " nodes formed, iter "
              << iter;
        }
      }

      // ---- Inter-node allreduce, one ParallelFor across all groups ---------
      // Every formed group leases a size-keyed slot (warm buffers + a
      // rebindable communicator) and the collectives — which only read the
      // ledger and write slot-local state — run concurrently. Registry and
      // ledger updates replay serially in formation order below; groups are
      // node-disjoint, so the replayed values match the serial flow exactly.
      garena.RecycleAll();
      gslots.clear();
      const bool dyn = cfg_.grouping == GroupingMode::kDynamicGroups;
      for (std::size_t gi = 0; gi < gws.groups.size(); ++gi) {
        const wlg::GroupView& view = gws.groups.group(gi);
        GroupSlot& slot = garena.Lease(view.size);
        slot.members = gws.groups.members(view);
        // Dynamic groups start after the GG's notify message; the fixed
        // hierarchical group starts as soon as every leader is ready.
        slot.start = dyn ? view.formed_at + request_cost : view.formed_at;
        gslots.push_back(&slot);
      }
      auto run_group = [&](std::size_t gi) {
        GroupSlot& slot = *gslots[gi];
        const double t0 = walled ? engine::ThreadPool::ThreadSeconds() : 0.0;
        const std::size_t gsize = slot.members.size();
        slot.leaders.resize(gsize);
        slot.inputs.resize(gsize);
        slot.starts.resize(gsize);
        slot.contributors = 0;
        for (std::size_t j = 0; j < gsize; ++j) {
          const simnet::NodeId n = slot.members[j];
          slot.leaders[j] = leaders[n];
          slot.inputs[j] = red[n].value;
          if (cfg_.mixed_precision) linalg::RoundToFloat(slot.inputs[j]);
          slot.starts[j] = std::max(slot.start, ledger[slot.leaders[j]].clock);
          slot.contributors += node_ranks[n].size();
        }
        if (multi_rack) {
          // One hierarchical group spanning every node: run the collective
          // recursively (per rack, then across rack leaders). mlar is shared
          // state, but multi_rack implies exactly one group per cycle.
          RunMultiLevelAllreduce(*mlar, *alg, cfg_.sparse_comm, slot.inputs,
                                 slot.starts, slot.iw);
        } else {
          if (slot.comm.has_value()) {
            slot.comm->Rebind(slot.leaders);
          } else {
            slot.comm.emplace(&topo, &cost_inter, slot.leaders);
          }
          RunInterAllreduce(*slot.comm, *alg, cfg_.sparse_comm, slot.inputs,
                            slot.starts, slot.iw);
        }
        if (walled) slot.wall = engine::ThreadPool::ThreadSeconds() - t0;
      };
      if (options.pool != nullptr) {
        options.pool->ParallelFor(gslots.size(), run_group);
      } else {
        engine::SerialFor(gslots.size(), run_group);
      }

      // Serial replay: metrics, leader waits, and the intra-node broadcast,
      // group by group in formation order (the order the serial flow used).
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        GroupSlot& slot = *gslots[gi];
        const std::size_t gsize = slot.members.size();
        if (eo.on()) {
          ++*pm.groups_formed;
          pm.group_size->Observe(static_cast<double>(gsize));
          for (std::size_t j = 0; j < gsize; ++j) {
            const auto li = static_cast<std::size_t>(slot.leaders[j]);
            pm.gg_wait_s->Observe(
                std::max(0.0, slot.starts[j] - ledger[li].clock));
            if (eo.tracing() && slot.starts[j] > eo.mark(li)) {
              eo.SpanAt("gg_wait", li, eo.mark(li), slot.starts[j], iter);
              eo.SetMark(li, slot.starts[j]);
            }
          }
          AccumulateArMetrics(pm.ar, slot.iw);
        }
        result.elements_sent += slot.iw.elements;
        result.messages_sent += slot.iw.messages;
        if (multi_rack) {
          // Stage-3 redistribution (rack leader -> its node leaders). It is
          // identical for every collective algorithm, so it is booked under
          // comm.rack.bcast.* rather than the algorithm's comm.allreduce.*
          // traffic — the PSR-vs-Ring comparison stays apples-to-apples.
          const std::size_t relems = mlar->redistribution_elements();
          const std::size_t rmsgs = mlar->redistribution_messages();
          result.elements_sent += relems;
          result.messages_sent += rmsgs;
          if (eo.on()) {
            *pm.rack_bcast_elements += relems;
            *pm.rack_bcast_messages += rmsgs;
            *pm.rack_bcast_bytes +=
                relems * (cfg_.sparse_comm ? inter_cost_cfg.value_bytes +
                                                 inter_cost_cfg.index_bytes
                                           : inter_cost_cfg.value_bytes);
          }
        }
        if (censoring) {  // fixed membership: fold deltas into the run sum
          linalg::Axpy(1.0, slot.iw.sum, W_running);
          slot.iw.sum = W_running;
        }
        for (std::size_t j = 0; j < gsize; ++j) {
          const simnet::NodeId n = slot.members[j];
          const simnet::Rank lead = leaders[n];
          ledger.WaitUntil(lead, slot.iw.stats.finish_times[j]);
          if (eo.tracing()) {
            const auto li = static_cast<std::size_t>(lead);
            const simnet::VirtualTime b = eo.mark(li);
            const simnet::VirtualTime e = ledger[li].clock;
            const simnet::VirtualTime sr = slot.iw.stats.scatter_reduce_done;
            if (sr > b && sr < e) {
              eo.SpanAt("scatter_reduce", li, b, sr, iter);
              eo.SpanAt("allgather", li, sr, e, iter);
            }
            // The group's measured collective wall, shared evenly among its
            // member leaders (one pool thread ran the whole collective).
            eo.SpanWall("w_allreduce", ledger, li, iter,
                        slot.wall / static_cast<double>(gsize));
          }

          // Leader broadcasts W to its node (paper Alg. 1 step 11).
          const auto& nmembers = node_ranks[n];
          const comm::GroupRank leader_g = intra[n].LocalRank(lead);
          const std::size_t elems =
              cfg_.sparse_comm ? slot.iw.result_nnz : d_sz;
          comm::BroadcastFromLeader(intra[n], leader_g, elems,
                                    ledger[lead].clock, bc);
          result.elements_sent += bc.elements_sent;
          result.messages_sent += bc.messages_sent;
          for (std::size_t m = 0; m < nmembers.size(); ++m) {
            ledger.WaitUntil(nmembers[m], bc.finish_times[m]);
          }
          if (eo.on()) {
            *pm.intra_bcast_elements += bc.elements_sent;
            *pm.intra_bcast_messages += bc.messages_sent;
            *pm.intra_bcast_bytes +=
                bc.elements_sent *
                (cfg_.sparse_comm ? cfg_.cluster.cost.value_bytes +
                                        cfg_.cluster.cost.index_bytes
                                  : cfg_.cluster.cost.value_bytes);
            if (eo.tracing()) {
              for (std::size_t m = 0; m < nmembers.size(); ++m) {
                eo.Span("w_broadcast", ledger,
                        static_cast<std::size_t>(nmembers[m]), iter);
              }
            }
          }
        }
      }

      // ---- Consensus update, flattened across all groups -------------------
      // One worker per group computes z in full; every other member worker
      // adopts it (bitwise-identical, same shortcut as ZYStepAll) in a
      // single ParallelFor over the flattened (group, worker) list — one
      // fork-join for the whole cluster instead of one per node. Ledger
      // charges and spans replay serially per worker afterwards, in the same
      // per-worker order as the serial flow.
      zy_first.clear();
      zy_copy_w.clear();
      zy_copy_src.clear();
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        const GroupSlot& slot = *gslots[gi];
        const simnet::Rank gfirst = node_ranks[slot.members[0]][0];
        zy_first.push_back(gfirst);
        for (const simnet::NodeId n : slot.members) {
          for (const simnet::Rank r : node_ranks[n]) {
            if (r != gfirst) {
              zy_copy_w.push_back(r);
              zy_copy_src.push_back(gfirst);
            }
          }
        }
      }
      auto zy_group = [&](std::size_t gi) {
        const GroupSlot& slot = *gslots[gi];
        const auto i = static_cast<std::size_t>(zy_first[gi]);
        if (walled) {
          const double t0 = engine::ThreadPool::ThreadSeconds();
          flops[i] = ws.ZYStep(i, slot.iw.sum, slot.contributors);
          zy_wall[i] = engine::ThreadPool::ThreadSeconds() - t0;
        } else {
          flops[i] = ws.ZYStep(i, slot.iw.sum, slot.contributors);
        }
      };
      auto zy_copy = [&](std::size_t k) {
        const auto i = static_cast<std::size_t>(zy_copy_w[k]);
        if (walled) {
          const double t0 = engine::ThreadPool::ThreadSeconds();
          flops[i] =
              ws.ZYStepFrom(i, static_cast<std::size_t>(zy_copy_src[k]));
          zy_wall[i] = engine::ThreadPool::ThreadSeconds() - t0;
        } else {
          flops[i] =
              ws.ZYStepFrom(i, static_cast<std::size_t>(zy_copy_src[k]));
        }
      };
      if (options.pool != nullptr) {
        options.pool->ParallelFor(gslots.size(), zy_group);
        options.pool->ParallelFor(zy_copy_w.size(), zy_copy);
      } else {
        engine::SerialFor(gslots.size(), zy_group);
        engine::SerialFor(zy_copy_w.size(), zy_copy);
      }
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        const GroupSlot& slot = *gslots[gi];
        for (const simnet::NodeId n : slot.members) {
          for (const simnet::Rank r : node_ranks[n]) {
            ledger.ChargeCompute(static_cast<std::size_t>(r),
                                 cost.ComputeTime(flops[r]));
          }
          if (eo.tracing()) {
            for (const simnet::Rank r : node_ranks[n]) {
              const auto i = static_cast<std::size_t>(r);
              eo.SpanWall("z_y_update", ledger, i, iter, zy_wall[i]);
            }
          }
        }
      }
    } else {
      // ---- Hierarchical/dynamic under fault injection ----------------------
      // The faulty path keeps the serial one-group-at-a-time flow: fault
      // handling (timeouts, exclusions, regrouping) threads per-group state
      // through the collective, and faulty iterations are rare and not
      // performance-critical.
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        if (node_active[n] == 0) continue;
        const auto& members = node_alive[n];
        const comm::GroupComm& ic = *intra_alive[n];
        const simnet::Rank lead = cur_leaders[n];
        const comm::GroupRank leader_g = ic.LocalRank(lead);
        inputs.resize(members.size());
        starts.resize(members.size());
        for (std::size_t m = 0; m < members.size(); ++m) {
          inputs[m] = ws.w(members[m]);
          starts[m] = ledger[members[m]].clock;
        }
        comm::ReduceToLeader(ic, leader_g, inputs, starts, red[n]);
        result.elements_sent += red[n].elements_sent;
        result.messages_sent += red[n].messages_sent;
        for (std::size_t m = 0; m < members.size(); ++m) {
          ledger.WaitUntil(members[m], red[n].finish_times[m]);
        }
        ledger.WaitUntil(lead, red[n].leader_ready);
        if (eo.on()) {
          *pm.intra_reduce_elements += red[n].elements_sent;
          *pm.intra_reduce_messages += red[n].messages_sent;
          *pm.intra_reduce_bytes +=
              red[n].elements_sent * cfg_.cluster.cost.value_bytes;
          if (eo.tracing()) {
            for (std::size_t m = 0; m < members.size(); ++m) {
              eo.Span("intra_reduce", ledger,
                      static_cast<std::size_t>(members[m]), iter);
            }
          }
        }
        leader_ready[n] = ledger[lead].clock;
      }

      // ---- Group formation -------------------------------------------------
      // Each formed group is (members, start time of its allreduce).
      if (cfg_.grouping == GroupingMode::kHierarchical) {
        // Rebuild the single group from the nodes still standing; a leader
        // dying mid-round drops its node from this round.
        simnet::VirtualTime all_ready = 0.0;
        groups.clear();
        active_nodes.clear();
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          if (node_active[n] == 0) continue;
          if (const auto death = faults.LeaderDeathAt(n, iter)) {
            kill_leader_mid_round(n, *death, iter);
            continue;
          }
          active_nodes.push_back(n);
          all_ready = std::max(all_ready, leader_ready[n]);
        }
        groups.emplace_back(active_nodes, all_ready);
      } else {
        // Faulty dynamic grouping: only live nodes report; a leader dying
        // right after its report is withdrawn from the GG queue (the
        // survivors regroup) or, if its group already formed, excluded from
        // that group below.
        groups.clear();
        leader_reports.clear();
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          if (node_active[n] == 0) continue;
          const simnet::Rank lead = cur_leaders[n];
          ledger.ChargeComm(lead, request_cost);
          ++result.messages_sent;
          report[n] = ledger[lead].clock;
          wlg::LeaderReport lr;
          lr.node = n;
          lr.time = report[n];
          if (const auto death = faults.LeaderDeathAt(n, iter)) {
            lr.dies_at = report[n];  // dies right after reporting
            kill_leader_mid_round(n, *death, iter);
          }
          leader_reports.push_back(lr);
          if (eo.on()) {
            ++*pm.gg_reports;
            eo.Span("gg_report", ledger, static_cast<std::size_t>(lead),
                    iter);
          }
        }
        for (auto& g : wlg::RunGroupingCycle(gg, leader_reports)) {
          const simnet::VirtualTime start = g.formed_at + request_cost;
          result.messages_sent += g.members.size();
          if (eo.on()) {
            *pm.gg_notifies += g.members.size();
            if (eo.tracing()) {
              simnet::VirtualTime first = g.formed_at;
              for (const simnet::NodeId n : g.members) {
                first = std::min(first, report[n]);
              }
              eo.AuxSpan(gg_track, "group_form", first, g.formed_at, iter);
            }
          }
          PSRA_SLOG(kDebug, "wlg").At(g.formed_at)
              << "survivors regrouped into " << g.members.size()
              << " nodes, iter " << iter;
          groups.emplace_back(std::move(g.members), start);
        }
      }

      // ---- Inter-node allreduce within each group + intra broadcast --------
      comm::FaultContext* const fc = faulty ? &fctx : nullptr;
      for (const auto& [members, start] : groups) {
        std::span<const simnet::NodeId> gmembers(members);
        if (faulty) {
          // Leaders that died after their group formed are excluded here
          // (the ones that died while queued never made it into a group).
          live_members.clear();
          for (const simnet::NodeId n : gmembers) {
            if (node_out[n] == 0) live_members.push_back(n);
          }
          gmembers = live_members;
        }
        const std::size_t gsize = gmembers.size();
        if (gsize == 0) continue;
        std::uint64_t contributors = 0;
        for (std::size_t j = 0; j < gsize; ++j) {
          const simnet::NodeId n = gmembers[j];
          group_leaders[j] = faulty ? cur_leaders[n] : leaders[n];
          ginputs[j] = red[n].value;
          if (cfg_.mixed_precision) linalg::RoundToFloat(ginputs[j]);
          gstarts[j] = std::max(start, ledger[group_leaders[j]].clock);
          contributors += faulty ? node_alive[n].size() : node_ranks[n].size();
        }
        if (eo.on()) {
          ++*pm.groups_formed;
          pm.group_size->Observe(static_cast<double>(gsize));
          for (std::size_t j = 0; j < gsize; ++j) {
            const auto li = static_cast<std::size_t>(group_leaders[j]);
            pm.gg_wait_s->Observe(
                std::max(0.0, gstarts[j] - ledger[li].clock));
            if (eo.tracing() && gstarts[j] > eo.mark(li)) {
              eo.SpanAt("gg_wait", li, eo.mark(li), gstarts[j], iter);
              eo.SetMark(li, gstarts[j]);
            }
          }
        }
        const comm::GroupComm inter(
            &topo, &cost_inter,
            {group_leaders.begin(), group_leaders.begin() + gsize});
        RunInterAllreduce(inter, *alg, cfg_.sparse_comm,
                          std::span(ginputs.data(), gsize),
                          std::span(gstarts.data(), gsize), iw, fc,
                          eo.on() ? &pm.ar : nullptr);
        result.elements_sent += iw.elements;
        result.messages_sent += iw.messages;
        if (censoring) {  // fixed membership: fold deltas into the run sum
          linalg::Axpy(1.0, iw.sum, W_running);
          iw.sum = W_running;
        }
        if (fc != nullptr && !fc->excluded.empty()) {
          // Nodes the collective timed out of this round contributed
          // nothing to the sum; their workers skip the consensus update.
          for (const comm::GroupRank g : fc->excluded) {
            contributors -= node_alive[gmembers[g]].size();
          }
        }

        std::size_t excl = 0;  // cursor into fc->excluded (sorted ascending)
        for (std::size_t gi = 0; gi < gsize; ++gi) {
          const simnet::NodeId n = gmembers[gi];
          const simnet::Rank lead = faulty ? cur_leaders[n] : leaders[n];
          ledger.WaitUntil(lead, iw.stats.finish_times[gi]);
          if (eo.tracing()) {
            const auto li = static_cast<std::size_t>(lead);
            const simnet::VirtualTime b = eo.mark(li);
            const simnet::VirtualTime e = ledger[li].clock;
            const simnet::VirtualTime sr = iw.stats.scatter_reduce_done;
            if (sr > b && sr < e) {
              eo.SpanAt("scatter_reduce", li, b, sr, iter);
              eo.SpanAt("allgather", li, sr, e, iter);
            }
            eo.Span("w_allreduce", ledger, li, iter);
          }
          if (fc != nullptr && excl < fc->excluded.size() &&
              fc->excluded[excl] == static_cast<comm::GroupRank>(gi)) {
            ++excl;  // timed out: no broadcast, node state frozen this round
            continue;
          }

          // Leader broadcasts W to its node (paper Alg. 1 step 11).
          const auto& nmembers = faulty ? node_alive[n] : node_ranks[n];
          const comm::GroupComm& ic = faulty ? *intra_alive[n] : intra[n];
          const comm::GroupRank leader_g = ic.LocalRank(lead);
          const std::size_t elems =
              cfg_.sparse_comm ? iw.result_nnz
                               : static_cast<std::size_t>(problem.dim());
          comm::BroadcastFromLeader(ic, leader_g, elems, ledger[lead].clock,
                                    bc);
          result.elements_sent += bc.elements_sent;
          result.messages_sent += bc.messages_sent;
          for (std::size_t m = 0; m < nmembers.size(); ++m) {
            ledger.WaitUntil(nmembers[m], bc.finish_times[m]);
          }
          if (eo.on()) {
            *pm.intra_bcast_elements += bc.elements_sent;
            *pm.intra_bcast_messages += bc.messages_sent;
            *pm.intra_bcast_bytes +=
                bc.elements_sent *
                (cfg_.sparse_comm ? cfg_.cluster.cost.value_bytes +
                                        cfg_.cluster.cost.index_bytes
                                  : cfg_.cluster.cost.value_bytes);
            if (eo.tracing()) {
              for (std::size_t m = 0; m < nmembers.size(); ++m) {
                eo.Span("w_broadcast", ledger,
                        static_cast<std::size_t>(nmembers[m]), iter);
              }
            }
          }
          ws.ZYStepAll(nmembers, iw.sum, contributors, flops);
          for (std::size_t m = 0; m < nmembers.size(); ++m) {
            const simnet::Rank r = nmembers[m];
            ledger.ChargeCompute(r, cost.ComputeTime(flops[r]));
          }
          if (eo.tracing()) {
            for (std::size_t m = 0; m < nmembers.size(); ++m) {
              eo.Span("z_y_update", ledger,
                      static_cast<std::size_t>(nmembers[m]), iter);
            }
          }
        }
      }
    }

    // ---- Residuals, adaptive penalty, stopping ---------------------------
    // Residual norms piggyback on the existing aggregation traffic (two
    // scalars), so no extra virtual time is charged.
    const WorkerSet::Residuals residuals = ws.AdvanceResiduals(z_prev_mean);
    const double rho_now = ws.MaybeAdaptRho(options.adaptive_rho, residuals);

    // ---- Convergence timeline (one row per iteration) --------------------
    // Samples come from virtual-time state and hoisted counters only, so the
    // timeline is bitwise-identical across pool sizes; appends are plain
    // stores into pooled chunks (0 allocs/iter, pinned by test_alloc).
    if (eo.on()) {
      eo.BeginTimelineRow(iter);
      conv.primal->Append(residuals.primal);
      conv.dual->Append(residuals.dual);
      // z_prev_mean was just refreshed: it holds THIS iteration's consensus
      // mean, so the objective is evaluated allocation-free on it.
      conv.objective->Append(
          solver::GlobalObjective(problem.train, z_prev_mean, problem.lambda));
      conv.rho->Append(rho_now);
      const std::uint64_t inv = *pm.ar.invocations;
      const std::uint64_t grp = *pm.groups_formed;
      const std::uint64_t byt = conv.BytesNow(pm);
      const std::uint64_t rnd = *pm.ar.rounds;
      conv.active_groups->Append(static_cast<double>(inv - conv.prev_invocations));
      conv.regroups->Append(static_cast<double>(grp - conv.prev_groups));
      conv.bytes->Append(static_cast<double>(byt - conv.prev_bytes));
      conv.rounds->Append(static_cast<double>(rnd - conv.prev_rounds));
      conv.prev_invocations = inv;
      conv.prev_groups = grp;
      conv.prev_bytes = byt;
      conv.prev_rounds = rnd;
    }
    if (options.progress != nullptr) {
      options.progress->Report({iter, options.max_iterations, residuals.primal,
                                residuals.dual, rho_now});
    }

    // ---- Metrics ----------------------------------------------------------
    if (options.record_trace &&
        (iter % options.eval_every == 0 || iter == options.max_iterations)) {
      IterationRecord rec = ws.Evaluate(iter, ledger);
      rec.primal_residual = residuals.primal;
      rec.dual_residual = residuals.dual;
      rec.rho = rho_now;
      result.trace.push_back(rec);
    }

    // ---- Periodic checkpoint (fault runs only) ---------------------------
    // Captures the live workers' state; a down worker's slot keeps its last
    // pre-crash snapshot, which is what its recovery restores.
    if (faulty && iter % cfg_.cluster.fault.checkpoint_every == 0) {
      CaptureRunCheckpoint(ws, iter, alive, ckpt,
                           eo.on() ? &eo.metrics() : nullptr);
    }

    // ---- Requested checkpoint (split-run / warm-restart harnesses) -------
    if (options.checkpoint_out != nullptr && iter == options.checkpoint_at) {
      CaptureRunCheckpoint(ws, iter, everyone, *options.checkpoint_out,
                           eo.on() ? &eo.metrics() : nullptr);
    }

    if (iter > 1 && WorkerSet::ShouldStop(options.stopping, residuals,
                                          problem.num_workers(),
                                          problem.dim())) {
      result.stopped_early = true;
      break;
    }
  }

  if (faulty) {
    result.faults.dropped_messages = fctx.dropped_messages;
    result.faults.retries = fctx.retries;
    result.faults.delayed_messages = fctx.delayed_messages;
  }

  result.final_z = ws.MeanZ();
  result.final_objective =
      solver::GlobalObjective(problem.train, result.final_z, problem.lambda);
  result.final_accuracy = solver::Accuracy(problem.test, result.final_z);
  result.total_cal_time = ledger.MeanCalTime();
  result.total_comm_time = ledger.MeanCommTime();
  result.makespan = ledger.MaxClock();
  if (eo.on()) {
    auto& m = eo.metrics();
    m.Counter("engine.iterations") += result.iterations_run;
    m.Counter("engine.censored_sends") += result.censored_sends;
    m.Counter("fault.worker_crashes") += result.faults.worker_crashes;
    m.Counter("fault.recoveries") += result.faults.recoveries;
    m.Counter("fault.leader_deaths") += result.faults.leader_deaths;
    m.Counter("fault.leader_reelections") += result.faults.leader_reelections;
    m.Counter("fault.dropped_messages") += result.faults.dropped_messages;
    m.Counter("fault.retries") += result.faults.retries;
    m.Counter("fault.delayed_messages") += result.faults.delayed_messages;
    m.Counter("fault.down_worker_iterations") +=
        result.faults.down_worker_iterations;
    m.Gauge("run.makespan_s") = result.makespan;
    m.Gauge("run.cal_time_s") = result.total_cal_time;
    m.Gauge("run.comm_time_s") = result.total_comm_time;
    m.Gauge("run.iterations") = static_cast<double>(result.iterations_run);
    // Early-stop outcome (Boyd §3.3): lets any metrics.json distinguish a
    // converged run from a max-iteration exit, and records how many
    // iterations the tolerance took when it was reached.
    m.Gauge("stopping.converged") = result.stopped_early ? 1.0 : 0.0;
    m.Gauge("stopping.iterations_to_tolerance") =
        result.stopped_early ? static_cast<double>(result.iterations_run) : 0.0;
    eo.PublishTimelineSummary();
    result.metrics = m;
  }
  return result;
}

}  // namespace psra::admm
