#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <span>

#include "comm/intranode.hpp"
#include "linalg/sparse_vector.hpp"
#include "simnet/fault.hpp"
#include "support/status.hpp"
#include "wlg/group_generator.hpp"
#include "wlg/leader.hpp"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kIteration: return "iteration";
    case kXUpdate: return "solver.x_update";
    case kXUpdateBusy: return "solver.x_update_busy";
    case kLedger: return "simnet.ledger";
    case kIntra: return "comm.intra";
    case kGrouping: return "wlg.cycle";
    case kSparsify: return "comm.sparsify";
    case kAllreduce: return "comm.allreduce";
    case kZy: return "solver.zy";
    case kResidual: return "admm.residual";
    case kUnattributed: return "unattributed";
    case kNumLayers: break;
  }
  return "?";
}

namespace {

using namespace psra;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxThreads = 64;

/// Small dense id of the calling thread, stable for the thread's lifetime.
std::size_t ThreadSlot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1);
  PSRA_CHECK(slot < kMaxThreads, "too many threads for the busy clocks");
  return slot;
}

/// Main-thread spans of one replay. Spans nest two deep: each iteration is a
/// root, and every layer call inside it is a direct child, so a child's self
/// time is its duration and the root's self time is the unattributed rest.
class SpanLog {
 public:
  struct Span {
    const char* name;
    Layer layer;
    double begin;
    double end;
    std::uint64_t iteration;
  };

  SpanLog(bool on, Clock::time_point epoch) : on_(on), epoch_(epoch) {}

  bool on() const { return on_; }
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Times `fn` as one call into `layer`.
  template <typename Fn>
  void Call(const char* name, Layer layer, std::uint64_t iteration, Fn&& fn) {
    if (!on_) {
      fn();
      return;
    }
    const double b = Now();
    fn();
    spans_.push_back({name, layer, b, Now(), iteration});
  }

  void Record(const char* name, Layer layer, double begin, double end,
              std::uint64_t iteration) {
    spans_.push_back({name, layer, begin, end, iteration});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// One formed group's collective state, reused across iterations.
struct GroupWork {
  std::span<const simnet::NodeId> members;
  std::vector<simnet::Rank> leaders;
  std::vector<linalg::DenseVector> inputs;
  std::vector<simnet::VirtualTime> starts;
  std::vector<linalg::SparseVector> sparse_inputs;
  linalg::SparseVector sparse_sum;
  linalg::DenseVector sum;
  comm::AllreduceScratch scratch;
  comm::CommStats stats;
  std::optional<comm::GroupComm> comm;
  simnet::VirtualTime start = 0.0;
  std::uint64_t contributors = 0;
  std::size_t result_nnz = 0;
};

template <typename Body>
void ForEach(engine::ThreadPool* pool, std::size_t n, Body&& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
  } else {
    engine::SerialFor(n, body);
  }
}

}  // namespace

ReplayResult Replay(const admm::ConsensusProblem& problem,
                    const admm::PsraConfig& cfg, const ReplayOptions& opt) {
  const auto& cl = cfg.cluster;
  PSRA_REQUIRE(cfg.grouping != admm::GroupingMode::kFlat,
               "the replay covers hierarchical and dynamic grouping");
  PSRA_REQUIRE(cl.num_racks == 1 && !cfg.mixed_precision &&
                   cfg.censor_threshold == 0.0 &&
                   simnet::FaultPlan(cl.fault).Empty(),
               "the replay covers the fault-free single-rack path only");

  const auto t_start = Clock::now();
  SpanLog log(opt.spans, t_start);
  const bool timed = log.on();

  const simnet::Topology topo(cl.num_nodes, cl.workers_per_node, cl.num_racks);
  PSRA_REQUIRE(problem.num_workers() == topo.world_size(),
               "problem must be partitioned into one shard per worker");
  // One cost model prices intra- and inter-node messages alike (the engine
  // splits them only for mixed precision).
  const simnet::CostModel cost(cl.cost);
  const simnet::StragglerModel stragglers(topo, cl.straggler);
  const auto world = static_cast<std::size_t>(topo.world_size());
  const std::uint32_t nodes = cl.num_nodes;
  const auto wpn = static_cast<std::size_t>(cl.workers_per_node);
  const auto d = static_cast<std::size_t>(problem.dim());
  const bool dyn = cfg.grouping == admm::GroupingMode::kDynamicGroups;
  const std::uint32_t threshold =
      cfg.group_threshold != 0 ? cfg.group_threshold
                               : std::max<std::uint32_t>(1, nodes / 2);
  const auto alg = comm::MakeAllreduce(cfg.allreduce);

  admm::RunOptions run_opt;
  run_opt.tron = opt.tron;
  run_opt.pool = opt.pool;
  admm::WorkerSet ws(&problem, &run_opt);
  engine::TimeLedger ledger(world);

  // The x-subproblems, held here (not inside WorkerSet) so each solve's
  // TRON and CG iteration counts are visible.
  std::vector<solver::ProximalLogistic> local;
  local.reserve(world);
  for (std::size_t i = 0; i < world; ++i) {
    local.emplace_back(&problem.shards[i], problem.rho);
    local.back().SetUseGramHessian(admm::UseGramSolver(
        run_opt.local_solver, problem.shards[i].num_samples(),
        problem.shards[i].num_features()));
  }
  std::vector<solver::TronWorkspace> tron_ws(world);
  std::vector<int> tron_iters(world, 0), cg_iters(world, 0);

  std::vector<std::vector<simnet::Rank>> node_ranks(nodes);
  std::vector<simnet::Rank> leaders(nodes);
  std::vector<comm::GroupComm> intra;
  intra.reserve(nodes);
  std::vector<simnet::NodeId> all_nodes(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) {
    node_ranks[n] = topo.RanksOnNode(n);
    leaders[n] =
        wlg::ElectLeader(topo, node_ranks[n], cfg.leader_policy, cl.seed);
    intra.emplace_back(&topo, &cost, node_ranks[n]);
    all_nodes[n] = n;
  }
  wlg::GroupGenerator gg(threshold, nodes);
  wlg::GroupWorkspace gws;
  gws.groups.Reserve(nodes);
  const simnet::VirtualTime request_cost =
      cost.LatencyOf(simnet::Link::kInterNode) +
      static_cast<double>(cfg.request_bytes) /
          cost.BandwidthOf(simnet::Link::kInterNode) +
      cfg.gg_service_time_s;

  std::vector<double> flops(world, 0.0);
  std::vector<double> x_busy(world, 0.0);
  linalg::DenseVector z_prev_mean(d, 0.0);
  std::vector<simnet::VirtualTime> all_starts(world);
  std::vector<comm::ReduceResult> red(nodes);
  std::vector<comm::BroadcastResult> bc(nodes);
  std::vector<simnet::VirtualTime> report(nodes);
  std::vector<GroupWork> groups;
  std::vector<simnet::Rank> zy_first, zy_copy_w, zy_copy_src;

  struct alignas(64) ThreadBusy {
    double s = 0.0;
  };
  std::vector<ThreadBusy> thread_busy(kMaxThreads);

  ReplayResult out;

  for (std::uint64_t iter = 1; iter <= opt.iterations; ++iter) {
    const std::size_t first_span = log.spans().size();
    const double it_begin = timed ? log.Now() : 0.0;

    // ---- x / w updates --------------------------------------------------
    log.Call("solver.x_update", kXUpdate, iter, [&] {
      const double rho = ws.rho();
      ForEach(opt.pool, world, [&](std::size_t i) {
        const auto t0 = timed ? Clock::now() : Clock::time_point{};
        solver::FlopCounter fc;
        local[i].SetRho(rho);
        local[i].SetIterationTerms(ws.y(i), ws.z(i));
        const auto tr =
            solver::TronMinimize(local[i], ws.x(i), opt.tron, &fc, tron_ws[i]);
        solver::WLocal(rho, ws.x(i), ws.y(i), ws.w(i), &fc);
        flops[i] = fc.flops;
        tron_iters[i] = tr.iterations;
        cg_iters[i] = tr.cg_iterations;
        if (timed) {
          const double dt =
              std::chrono::duration<double>(Clock::now() - t0).count();
          x_busy[i] = dt;
          thread_busy[ThreadSlot()].s += dt;
        }
      });
    });
    log.Call("simnet.ledger", kLedger, iter, [&] {
      for (std::size_t i = 0; i < world; ++i) {
        const double mult = admm::ComputeMultiplier(
            cl, topo, stragglers, static_cast<simnet::Rank>(i), iter);
        ledger.ChargeCompute(i, cost.ComputeTime(flops[i]) * mult);
      }
      for (std::size_t i = 0; i < world; ++i) all_starts[i] = ledger[i].clock;
    });
    for (std::size_t i = 0; i < world; ++i) {
      out.x_flops += flops[i];
      out.tron_iterations += static_cast<std::uint64_t>(tron_iters[i]);
      out.cg_iterations += static_cast<std::uint64_t>(cg_iters[i]);
    }
    out.solves += world;

    // ---- Intra-node reduce to each leader ---------------------------------
    log.Call("comm.intra_reduce", kIntra, iter, [&] {
      ForEach(opt.pool, nodes, [&](std::size_t n) {
        const comm::GroupComm& ic = intra[n];
        comm::ReduceToLeader(
            ic, ic.LocalRank(leaders[n]), ws.w_all().subspan(n * wpn, wpn),
            std::span<const simnet::VirtualTime>(all_starts)
                .subspan(n * wpn, wpn),
            red[n]);
      });
    });
    log.Call("simnet.ledger", kLedger, iter, [&] {
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        out.elements_sent += red[n].elements_sent;
        out.messages_sent += red[n].messages_sent;
        for (std::size_t m = 0; m < node_ranks[n].size(); ++m) {
          ledger.WaitUntil(node_ranks[n][m], red[n].finish_times[m]);
        }
        ledger.WaitUntil(leaders[n], red[n].leader_ready);
      }
      if (dyn) {  // leaders report to the Group Generator
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          ledger.ChargeComm(leaders[n], request_cost);
          ++out.messages_sent;
          report[n] = ledger[leaders[n]].clock;
        }
      }
    });

    // ---- Group formation --------------------------------------------------
    log.Call("wlg.cycle", kGrouping, iter, [&] {
      if (dyn) {
        wlg::RunGroupingCycle(gg, report, gws);
      } else {
        simnet::VirtualTime all_ready = 0.0;
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          all_ready = std::max(all_ready, ledger[leaders[n]].clock);
        }
        gws.groups.Clear();
        gws.groups.PushGroup(all_nodes, all_ready);
      }
    });
    const std::size_t num_groups = gws.groups.size();
    out.groups_formed += num_groups;
    if (groups.size() < num_groups) groups.resize(num_groups);

    // ---- Inter-leader allreduce, one group per pool task ------------------
    log.Call("comm.sparsify", kSparsify, iter, [&] {
      for (std::size_t gi = 0; gi < num_groups; ++gi) {
        const wlg::GroupView& view = gws.groups.group(gi);
        groups[gi].members = gws.groups.members(view);
        // GG notifies every member leader; the group starts after that.
        if (dyn) out.messages_sent += view.size;
        groups[gi].start = dyn ? view.formed_at + request_cost : view.formed_at;
      }
      ForEach(opt.pool, num_groups, [&](std::size_t gi) {
        GroupWork& g = groups[gi];
        const std::size_t gsize = g.members.size();
        g.leaders.resize(gsize);
        g.inputs.resize(gsize);
        g.starts.resize(gsize);
        g.contributors = 0;
        for (std::size_t j = 0; j < gsize; ++j) {
          const simnet::NodeId n = g.members[j];
          g.leaders[j] = leaders[n];
          g.inputs[j] = red[n].value;
          g.starts[j] = std::max(g.start, ledger[g.leaders[j]].clock);
          g.contributors += node_ranks[n].size();
        }
        if (cfg.sparse_comm) {
          g.sparse_inputs.resize(gsize);
          for (std::size_t j = 0; j < gsize; ++j) {
            g.sparse_inputs[j].AssignFromDense(g.inputs[j]);
          }
        }
      });
    });
    log.Call("comm.allreduce", kAllreduce, iter, [&] {
      ForEach(opt.pool, num_groups, [&](std::size_t gi) {
        GroupWork& g = groups[gi];
        if (g.comm.has_value()) {
          g.comm->Rebind(g.leaders);
        } else {
          g.comm.emplace(&topo, &cost, g.leaders);
        }
        if (cfg.sparse_comm) {
          alg->ReduceSparse(*g.comm, g.sparse_inputs, g.starts, g.scratch,
                            g.sparse_sum, g.stats);
        } else {
          alg->ReduceDense(*g.comm, g.inputs, g.starts, g.scratch, g.sum,
                           g.stats);
        }
      });
    });
    log.Call("comm.densify", kSparsify, iter, [&] {
      ForEach(opt.pool, num_groups, [&](std::size_t gi) {
        GroupWork& g = groups[gi];
        if (cfg.sparse_comm) {
          g.sparse_sum.ToDense(g.sum);
          g.result_nnz = g.sparse_sum.nnz();
        } else {
          g.result_nnz = g.sum.size();
        }
      });
    });

    // ---- Leader waits, broadcast to each node, member waits ---------------
    // Nodes are disjoint, so doing every node's wait, then every broadcast,
    // then every member wait books the same clocks as the engine's
    // node-by-node order.
    log.Call("simnet.ledger", kLedger, iter, [&] {
      for (std::size_t gi = 0; gi < num_groups; ++gi) {
        const GroupWork& g = groups[gi];
        out.elements_sent += g.stats.elements_sent;
        out.messages_sent += g.stats.messages_sent;
        for (std::size_t j = 0; j < g.members.size(); ++j) {
          ledger.WaitUntil(leaders[g.members[j]], g.stats.finish_times[j]);
        }
      }
    });
    log.Call("comm.broadcast", kIntra, iter, [&] {
      for (std::size_t gi = 0; gi < num_groups; ++gi) {
        const GroupWork& g = groups[gi];
        const std::size_t elems = cfg.sparse_comm ? g.result_nnz : d;
        for (const simnet::NodeId n : g.members) {
          comm::BroadcastFromLeader(intra[n], intra[n].LocalRank(leaders[n]),
                                    elems, ledger[leaders[n]].clock, bc[n]);
          out.elements_sent += bc[n].elements_sent;
          out.messages_sent += bc[n].messages_sent;
        }
      }
    });
    log.Call("simnet.ledger", kLedger, iter, [&] {
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        for (std::size_t m = 0; m < node_ranks[n].size(); ++m) {
          ledger.WaitUntil(node_ranks[n][m], bc[n].finish_times[m]);
        }
      }
    });

    // ---- Consensus update: one z per group, copied to its other workers ---
    log.Call("solver.zy", kZy, iter, [&] {
      zy_first.clear();
      zy_copy_w.clear();
      zy_copy_src.clear();
      for (std::size_t gi = 0; gi < num_groups; ++gi) {
        const simnet::Rank first = node_ranks[groups[gi].members[0]][0];
        zy_first.push_back(first);
        for (const simnet::NodeId n : groups[gi].members) {
          for (const simnet::Rank r : node_ranks[n]) {
            if (r != first) {
              zy_copy_w.push_back(r);
              zy_copy_src.push_back(first);
            }
          }
        }
      }
      ForEach(opt.pool, num_groups, [&](std::size_t gi) {
        const auto i = static_cast<std::size_t>(zy_first[gi]);
        flops[i] = ws.ZYStep(i, groups[gi].sum, groups[gi].contributors);
      });
      ForEach(opt.pool, zy_copy_w.size(), [&](std::size_t k) {
        const auto i = static_cast<std::size_t>(zy_copy_w[k]);
        flops[i] = ws.ZYStepFrom(i, static_cast<std::size_t>(zy_copy_src[k]));
      });
    });
    log.Call("simnet.ledger", kLedger, iter, [&] {
      for (std::size_t gi = 0; gi < num_groups; ++gi) {
        for (const simnet::NodeId n : groups[gi].members) {
          for (const simnet::Rank r : node_ranks[n]) {
            ledger.ChargeCompute(r, cost.ComputeTime(flops[r]));
          }
        }
      }
    });

    // ---- Residuals --------------------------------------------------------
    log.Call("admm.residual", kResidual, iter, [&] {
      const auto res = ws.ComputeResiduals(z_prev_mean);
      ws.MeanZInto(z_prev_mean);
      ws.MaybeAdaptRho(run_opt.adaptive_rho, res);
    });

    if (timed) {
      const double it_end = log.Now();
      log.Record("iteration", kIteration, it_begin, it_end, iter);
      std::array<double, kNumLayers> ms{};
      ms[kIteration] = (it_end - it_begin) * 1e3;
      double children = 0.0;
      const auto& spans = log.spans();
      for (std::size_t s = first_span; s + 1 < spans.size(); ++s) {
        const double dur = (spans[s].end - spans[s].begin) * 1e3;
        ms[spans[s].layer] += dur;
        children += dur;
      }
      ms[kUnattributed] = ms[kIteration] - children;
      double busy = 0.0;
      for (std::size_t i = 0; i < world; ++i) busy += x_busy[i];
      ms[kXUpdateBusy] = busy * 1e3;
      out.x_busy_s += busy;
      out.x_region_s += ms[kXUpdate] * 1e-3;
      for (int l = 0; l < kNumLayers; ++l) out.layer_ms[l].push_back(ms[l]);
    }
  }

  out.iterations = opt.iterations;
  out.final_z = ws.MeanZ();
  out.wall_s = std::chrono::duration<double>(Clock::now() - t_start).count();
  if (timed) {
    for (std::size_t t = 0; t < kMaxThreads; ++t) {
      if (thread_busy[t].s > 0.0) out.x_thread_busy_s.push_back(thread_busy[t].s);
    }
    if (opt.trace_out != nullptr) {
      const auto track = opt.trace_out->AddTrack("replay (host seconds)");
      for (const auto& s : log.spans()) {
        opt.trace_out->Add(track, s.name, s.begin, s.end, s.iteration,
                           s.end - s.begin);
      }
    }
  }
  return out;
}

}  // namespace perfbench
