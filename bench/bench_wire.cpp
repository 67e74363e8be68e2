// bench_wire: wall-clock calibration of the wire collectives over real
// loopback TCP sockets, one OS process per rank, against the simulator's
// virtual-time model of the identical collective.
//
//   bench_wire --ranks 4 [--dim 65536] [--reps 10]
//              [--out CALIB_transport.json] [--metrics metrics_wire.json]
//
// For each (algorithm, density) case every rank runs `reps` timed
// collectives (after warmup) between two fences; rank 0 reports
// measured seconds per collective next to the simulator's modeled
// completion time (CommStats::all_done under the default cost model) and
// their ratio. The ratio is NOT expected to be 1.0 — the cost model prices
// a 10GbE-class fabric, loopback is a memory copy — it is the documented
// calibration constant between the two (DESIGN.md section 11).
//
// Artifacts (written by rank 0):
//   CALIB_transport.json   one record per case: modeled_s, measured_s, ratio
//   metrics_wire.json      schema-checked metrics: comm.allreduce.* traffic
//                          aggregated across ranks over the transport
//                          itself, run summary gauges, transport.* counters
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "comm/transport.hpp"
#include "comm/wire_allreduce.hpp"
#include "comm/wire_obs.hpp"
#include "obs/metrics.hpp"
#include "obs/wire.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "transport/launch.hpp"
#include "transport/tcp.hpp"

namespace {

using psra::comm::AllreduceKind;
using psra::comm::CommStats;
using psra::comm::GroupComm;
using psra::comm::Transport;
using psra::comm::WireCollectives;
using psra::comm::WireStats;
using psra::linalg::DenseVector;
using psra::linalg::SparseVector;
using psra::simnet::Rank;
using psra::simnet::VirtualTime;
using psra::transport::TcpOptions;
using psra::transport::TcpTransport;

// Below Transport::kMaxCollectiveTag: [kMaxCollectiveTag, kMaxUserTag) is
// the obs collection plane's reserved range.
constexpr Transport::Tag kStatsBase = 0xFFFC0000u;

struct Case {
  AllreduceKind kind;
  bool sparse;
  const char* name;   // case label in CALIB_transport.json
  const char* metric; // comm.allreduce.<metric> key segment
};

/// Stage names the wire collectives record for this algorithm, in schedule
/// order (wire.phase.<name>.wall_s histograms).
std::span<const char* const> PhaseNames(AllreduceKind kind) {
  static constexpr const char* kTwoStage[] = {"scatter_reduce", "allgather"};
  static constexpr const char* kRooted[] = {"gather", "broadcast"};
  return kind == AllreduceKind::kNaive ? std::span<const char* const>(kRooted)
                                       : std::span<const char* const>(
                                             kTwoStage);
}

/// (sum, count) snapshot of one histogram; subtraction isolates the timed
/// window of a case from its warmup and from earlier cases.
struct HistoSnap {
  double sum = 0.0;
  std::uint64_t count = 0;
};

HistoSnap Snap(const psra::obs::MetricsRegistry& reg,
               const std::string& name) {
  const auto it = reg.histograms().find(name);
  if (it == reg.histograms().end()) return {};
  return {it->second.sum, it->second.count};
}

constexpr Case kCases[] = {
    {AllreduceKind::kPsr, false, "psr_dense", "psr"},
    {AllreduceKind::kPsr, true, "psr_sparse", "psr"},
    {AllreduceKind::kRing, false, "ring_dense", "ring"},
    {AllreduceKind::kRing, true, "ring_sparse", "ring"},
    {AllreduceKind::kNaive, false, "naive_dense", "naive"},
    {AllreduceKind::kNaive, true, "naive_sparse", "naive"},
};

DenseVector MakeDense(std::uint32_t rank, std::uint64_t dim) {
  psra::Rng rng(1234 + rank);
  DenseVector v(dim);
  for (auto& x : v) x = rng.NextDouble(-1.0, 1.0);
  return v;
}

SparseVector MakeSparse(std::uint32_t rank, std::uint64_t dim) {
  psra::Rng rng(99 + rank);
  std::vector<SparseVector::Index> idx;
  std::vector<double> val;
  for (std::uint64_t i = 0; i < dim; ++i) {
    if (rng.NextDouble() < 0.25) {
      idx.push_back(i);
      val.push_back(rng.NextDouble(-2.0, 2.0));
    }
  }
  return SparseVector(dim, std::move(idx), std::move(val));
}

struct PhaseResult {
  std::string name;
  double modeled_s = 0.0;   // simulator stage completion delta
  double measured_s = 0.0;  // mean wall seconds per timed collective
};

struct CaseResult {
  std::string name;
  double modeled_s = 0.0;
  double measured_s = 0.0;
  std::size_t invocations = 0;
  WireStats traffic;  // aggregated across all ranks, all invocations
  std::vector<PhaseResult> phases;
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void RunWorker(const TcpOptions& opt, std::uint64_t dim, std::uint32_t reps,
               const std::string& out_path, const std::string& metrics_path) {
  constexpr std::uint32_t kWarmup = 2;
  TcpTransport t(opt);
  const std::uint32_t n = opt.world;

  // Simulator reference side (also supplies the byte pricing).
  psra::simnet::Topology topo(n, 1);
  psra::simnet::CostModel cost{psra::simnet::CostModelConfig{}};
  std::vector<Rank> sim_members(n);
  for (std::uint32_t i = 0; i < n; ++i) sim_members[i] = i;
  GroupComm group(&topo, &cost, sim_members);
  psra::obs::WireObs obs(opt.rank);
  t.AttachObs(&obs);
  WireCollectives wc(t, group.pricing(), &obs);

  std::vector<Transport::Rank> members(n);
  for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
  const std::vector<VirtualTime> starts(n, 0.0);

  std::vector<CaseResult> results;
  Transport::Tag stats_tag = kStatsBase;
  for (const Case& c : kCases) {
    // Modeled side: the omniscient simulator on identical inputs.
    CommStats sim_stats;
    psra::comm::AllreduceScratch scratch;
    const auto alg = psra::comm::MakeAllreduce(c.kind);
    std::vector<DenseVector> dense_in;
    std::vector<SparseVector> sparse_in;
    if (c.sparse) {
      for (std::uint32_t r = 0; r < n; ++r) {
        sparse_in.push_back(MakeSparse(r, dim));
      }
      SparseVector sum;
      alg->ReduceSparse(group, sparse_in, starts, scratch, sum, sim_stats);
    } else {
      for (std::uint32_t r = 0; r < n; ++r) {
        dense_in.push_back(MakeDense(r, dim));
      }
      DenseVector sum;
      alg->ReduceDense(group, dense_in, starts, scratch, sum, sim_stats);
    }

    // Measured side: warmup, fence, `reps` timed collectives, fence.
    WireStats st;
    DenseVector dense_out;
    SparseVector sparse_out;
    auto once = [&] {
      if (c.sparse) {
        wc.AllreduceSparse(c.kind, members, sparse_in[opt.rank], sparse_out,
                           st);
      } else {
        wc.AllreduceDense(c.kind, members, dense_in[opt.rank], dense_out, st);
      }
    };
    for (std::uint32_t i = 0; i < kWarmup; ++i) once();
    t.Fence();
    // Per-phase window: the wire.phase.* histograms accumulate across the
    // whole run, so the timed reps are isolated by snapshot subtraction.
    std::vector<HistoSnap> before;
    for (const char* phase : PhaseNames(c.kind)) {
      before.push_back(Snap(
          obs.metrics(), std::string("wire.phase.") + phase + ".wall_s"));
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < reps; ++i) once();
    t.Fence();
    const double wall = Seconds(std::chrono::steady_clock::now() - start);

    // Aggregate every rank's traffic on rank 0 (over the transport).
    CaseResult res;
    res.name = c.name;
    res.modeled_s = sim_stats.all_done;
    res.measured_s = wall / reps;
    res.invocations = kWarmup + reps;
    res.traffic = st;
    {
      const auto names = PhaseNames(c.kind);
      const double modeled_split[2] = {
          sim_stats.scatter_reduce_done,
          sim_stats.all_done - sim_stats.scatter_reduce_done};
      for (std::size_t i = 0; i < names.size(); ++i) {
        const HistoSnap after = Snap(
            obs.metrics(), std::string("wire.phase.") + names[i] + ".wall_s");
        PhaseResult pr;
        pr.name = names[i];
        pr.modeled_s = modeled_split[i];
        const std::uint64_t samples = after.count - before[i].count;
        pr.measured_s =
            samples > 0 ? (after.sum - before[i].sum) / samples : 0.0;
        res.phases.push_back(std::move(pr));
      }
    }
    if (opt.rank == 0) {
      std::vector<std::byte> buf;
      for (std::uint32_t r = 1; r < n; ++r) {
        t.Recv(r, stats_tag, buf);
        std::size_t quad[4];
        std::memcpy(quad, buf.data(), sizeof(quad));
        res.traffic.elements_sent += quad[0];
        res.traffic.messages_sent += quad[1];
        res.traffic.bytes_sent += quad[2];
        res.traffic.rounds += quad[3];
      }
      results.push_back(res);
    } else {
      const std::size_t quad[4] = {st.elements_sent, st.messages_sent,
                                   st.bytes_sent, st.rounds};
      t.Post(0, stats_tag, std::as_bytes(std::span<const std::size_t>(quad)));
    }
    ++stats_tag;

    // Per-rank measured traffic; rank 0's MergeFrom during collection sums
    // these back into the same aggregates the quad shipping computed.
    {
      auto& m = obs.metrics();
      const std::string base = std::string("comm.allreduce.") + c.metric;
      if (opt.rank == 0) m.Counter(base + ".invocations") += kWarmup + reps;
      m.Counter(base + ".elements") += st.elements_sent;
      m.Counter(base + ".messages") += st.messages_sent;
      m.Counter(base + ".bytes") += st.bytes_sent;
      m.Counter(base + ".rounds") += st.rounds;
    }
  }
  if (opt.rank == 0) {
    std::uint64_t total_invocations = 0;
    double total_wall = 0.0;
    for (const auto& r : results) {
      total_invocations += r.invocations;
      total_wall += r.measured_s * (r.invocations - kWarmup);
    }
    auto& m = obs.metrics();
    m.Counter("engine.iterations") += total_invocations;
    m.Gauge("run.makespan_s") = total_wall;
    m.Gauge("run.cal_time_s") = 0.0;
    m.Gauge("run.comm_time_s") = total_wall;
    m.Gauge("run.iterations") = static_cast<double>(total_invocations);
  }

  // Collection plane: every rank's registry (and trace) lands on rank 0;
  // the merged registry is what metrics_wire.json carries, transport.*
  // counters now summed over the whole world.
  psra::comm::WireObsBundle bundle;
  const bool root = psra::comm::CollectWireObs(t, obs, &bundle);
  if (!root) return;

  // ---- CALIB_transport.json ----
  {
    std::ofstream os(out_path);
    if (!os) throw psra::IoError("cannot write " + out_path);
    char num[64];
    os << "{\n  \"ranks\": " << n << ",\n  \"dim\": " << dim
       << ",\n  \"reps\": " << reps << ",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      os << "    {\"name\": \"" << r.name << "\"";
      std::snprintf(num, sizeof(num), "%.9g", r.modeled_s);
      os << ", \"modeled_s\": " << num;
      std::snprintf(num, sizeof(num), "%.9g", r.measured_s);
      os << ", \"measured_s\": " << num;
      std::snprintf(num, sizeof(num), "%.9g",
                    r.modeled_s > 0 ? r.measured_s / r.modeled_s : 0.0);
      os << ", \"measured_over_modeled\": " << num;
      os << ", \"bytes_per_collective\": "
         << r.traffic.bytes_sent / r.invocations;
      os << ", \"phases\": [";
      for (std::size_t j = 0; j < r.phases.size(); ++j) {
        const auto& p = r.phases[j];
        os << (j > 0 ? ", " : "") << "{\"name\": \"" << p.name << "\"";
        std::snprintf(num, sizeof(num), "%.9g", p.modeled_s);
        os << ", \"modeled_s\": " << num;
        std::snprintf(num, sizeof(num), "%.9g", p.measured_s);
        os << ", \"measured_s\": " << num;
        std::snprintf(num, sizeof(num), "%.9g",
                      p.modeled_s > 0 ? p.measured_s / p.modeled_s : 0.0);
        os << ", \"measured_over_modeled\": " << num << "}";
      }
      os << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

  // ---- metrics_wire.json (schema-gated, merged across all ranks) ----
  {
    std::ofstream os(metrics_path);
    if (!os) throw psra::IoError("cannot write " + metrics_path);
    bundle.metrics.WriteJson(os);
  }

  std::printf("bench_wire: %u ranks dim %llu reps %u\n", n,
              static_cast<unsigned long long>(dim), reps);
  for (const auto& r : results) {
    std::printf("  %-12s modeled %.6fs  measured %.6fs  ratio %.3f\n",
                r.name.c_str(), r.modeled_s, r.measured_s,
                r.modeled_s > 0 ? r.measured_s / r.modeled_s : 0.0);
  }
  std::printf("bench_wire: wrote %s and %s\n", out_path.c_str(),
              metrics_path.c_str());
}

int Run(int argc, char** argv) {
  psra::CliParser cli("bench_wire",
                      "Wall-clock calibration of wire collectives vs the "
                      "simulator's cost model");
  std::int64_t ranks = 4;
  std::int64_t dim = 65536;
  std::int64_t reps = 10;
  std::string out = "CALIB_transport.json";
  std::string metrics = "metrics_wire.json";
  cli.AddInt("ranks", &ranks, "worker processes (ignored in env-worker mode)");
  cli.AddInt("dim", &dim, "vector dimension");
  cli.AddInt("reps", &reps, "timed repetitions per case");
  cli.AddString("out", &out, "calibration JSON path");
  cli.AddString("metrics", &metrics, "metrics JSON path (schema-gated)");
  if (!cli.Parse(argc, argv)) return 0;
  if (dim < 1 || reps < 1) {
    std::fprintf(stderr, "bench_wire: --dim and --reps must be >= 1\n");
    return 2;
  }
  const auto u64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };

  if (std::getenv("PSRA_RANK") != nullptr) {
    RunWorker(TcpOptions::FromEnv(), u64(dim),
              static_cast<std::uint32_t>(reps), out, metrics);
    return 0;
  }
  if (ranks < 1 || ranks > 64) {
    std::fprintf(stderr, "bench_wire: --ranks must be in [1, 64]\n");
    return 2;
  }
  const auto result = psra::transport::ForkRanks(
      static_cast<std::uint32_t>(ranks), [&](const TcpOptions& opt) {
        RunWorker(opt, u64(dim), static_cast<std::uint32_t>(reps), out,
                  metrics);
      });
  if (!result.AllZero()) {
    std::fprintf(stderr, "bench_wire: FAILED exit codes:");
    for (int c : result.exit_codes) std::fprintf(stderr, " %d", c);
    std::fprintf(stderr, "\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_wire: %s\n", e.what());
    return 1;
  }
}
