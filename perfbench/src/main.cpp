// perfbench_harness: one benchmark run of one workload.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--git-sha <sha>] [--source-digest <hex>]
//                     [--trace-file <path>]
//
// Load is a closed loop from this one process: one PsraHgAdmm::Run at a
// time, the next starting when the previous returns. --trace 0 measures the
// end-to-end metrics from serial runs timed on the thread's CPU clock; runs
// on a two-thread engine::ThreadPool (three busy threads with the caller)
// must match them bitwise. --trace 1 measures the per-layer metrics with the
// pooled engine, the traced replay (replay.hpp) and kernel probes
// (probes.hpp). The last line of
// stdout is the result record (report.hpp); the exit code is 0 only when
// every correctness check passed.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "admm/psra_hgadmm.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "support/status.hpp"
#include "tolerance.hpp"
#include "workloads.hpp"

namespace {

using namespace psra;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoolThreads = 2;
constexpr int kSetupReps = 9;
constexpr int kTimedRuns = 8;  // timed serial runs per problem instance
constexpr int kMinInstances = 2;
constexpr int kSetupRepsPerInstance = 3;
// Residual targets, as multiples of the iteration-1 primal and dual
// residuals: admm.solve_s / admm.iters_to_tol mark kSolveTol; a run that
// never reaches kProgressTol made no progress and fails. Dynamic grouping
// leaves some seeds a group-consensus floor above kSolveTol, so kSolveTol is
// a measurement and not a pass/fail gate.
constexpr double kSolveTol = 1e-3;
constexpr double kProgressTol = 1e-1;
// Cap on the streaming-ceiling arrays, so a traced run stays small on a
// shared host; below 4x the LLC the ceiling is reported as not valid.
constexpr std::size_t kStreamCapBytes = std::size_t{256} << 20;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_file;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    PSRA_REQUIRE(i + 1 < argc, "missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--source-digest") {
      a.source_digest = v;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else {
      throw InvalidArgument("unknown flag " + flag);
    }
  }
  PSRA_REQUIRE(FindWorkload(a.workload) != nullptr,
               "unknown workload '" + a.workload + "'");
  PSRA_REQUIRE(a.seconds > 0.0, "--seconds must be positive");
  PSRA_REQUIRE(a.trace == 0 || a.trace == 1, "--trace must be 0 or 1");
  return a;
}

// ---- Setup ----------------------------------------------------------------

struct Setup {
  admm::ConsensusProblem problem;
  std::vector<double> generate_s, partition_s, total_s;

  /// One problem generation, partitioning and engine construction for the
  /// seed; the problem is kept. Set-up runs on this thread alone and is
  /// timed on its CPU clock, like the serial engine runs.
  void Repeat(const Workload& w, std::uint64_t seed) {
    const auto spec = MakeSpec(w, seed);
    problem = {};  // one set-up problem resident at a time (peak_rss_mb)
    const double t0 = ThreadCpuSeconds();
    auto gen = data::GenerateSynthetic(spec);
    const double t1 = ThreadCpuSeconds();
    problem = admm::BuildProblemFromData(
        spec.name, std::move(gen.train), std::move(gen.test),
        std::uint64_t{w.nodes} * std::uint64_t{w.workers_per_node});
    const double t2 = ThreadCpuSeconds();
    const admm::PsraHgAdmm engine(MakeConfig(w, seed));
    total_s.push_back(ThreadCpuSeconds() - t0);
    generate_s.push_back(t1 - t0);
    partition_s.push_back(t2 - t1);
  }
};

/// kSetupReps set-ups back to back.
Setup BuildSetup(const Workload& w, std::uint64_t seed) {
  Setup s;
  for (int r = 0; r < kSetupReps; ++r) s.Repeat(w, seed);
  return s;
}

admm::ConsensusProblem MakeProblem(const Workload& w, std::uint64_t seed) {
  return admm::BuildProblem(MakeSpec(w, seed),
                            std::uint64_t{w.nodes} * w.workers_per_node);
}

// ---- Engine runs and their correctness checks -------------------------------

struct EngineRun {
  admm::RunResult res;
  std::string error;  // what() of an exception thrown by Run
  double wall_s = 0.0;
  double thread_cpu_s = 0.0;  // CPU seconds of the calling thread during Run
  std::vector<double> iter_cpu_ms;  // calling thread's CPU ms per iteration
  std::uint64_t solve_iteration = 0;  // 0: kSolveTol not reached
  double solve_s = 0.0;
  bool progressed = false;  // kProgressTol reached

  double ItersPerSec() const {
    return static_cast<double>(res.iterations_run) / wall_s;
  }
  double ItersPerCpuSec() const {
    return static_cast<double>(res.iterations_run) / thread_cpu_s;
  }
};

EngineRun RunEngine(const admm::PsraHgAdmm& alg,
                    const admm::ConsensusProblem& problem,
                    std::uint64_t iterations, engine::ThreadPool* pool,
                    obs::ObsContext* obs) {
  ToleranceSink sink({kSolveTol, kProgressTol});
  admm::RunOptions opt;
  opt.max_iterations = iterations;
  opt.tron = BenchTron();
  opt.record_trace = false;
  opt.pool = pool;
  opt.obs = obs;
  opt.progress = &sink;
  EngineRun r;
  const double tc0 = ThreadCpuSeconds();
  const auto t0 = Clock::now();
  sink.Start(t0, iterations);
  try {
    r.res = alg.Run(problem, opt);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = Since(t0);
  r.thread_cpu_s = ThreadCpuSeconds() - tc0;
  r.iter_cpu_ms = sink.iter_cpu_ms();
  r.solve_iteration = sink.crossed_iteration(0);
  r.solve_s = sink.crossed_s(0);
  r.progressed = sink.crossed_iteration(1) != 0;
  return r;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool AllFinite(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Empty when the run passed; otherwise why it failed. `ref`, when given,
/// is a run of the same problem that this one must reproduce exactly.
std::string CheckRun(const EngineRun& r, const EngineRun* ref) {
  if (!r.error.empty()) return "threw: " + r.error;
  if (r.res.final_z.empty() || !AllFinite(r.res.final_z) ||
      !std::isfinite(r.res.final_objective) ||
      !std::isfinite(r.res.SystemTime())) {
    return "non-finite output";
  }
  if (!r.progressed) return "residuals never fell to 1e-1 x iteration 1";
  if (ref != nullptr &&
      (!BitwiseEqual(r.res.final_z, ref->res.final_z) ||
       r.res.elements_sent != ref->res.elements_sent ||
       r.res.messages_sent != ref->res.messages_sent ||
       r.res.SystemTime() != ref->res.SystemTime())) {
    return "final_z or traffic differs from the reference run";
  }
  return "";
}

/// Correctness bookkeeping: every engine run and replay is one attempted
/// operation, and a failed check counts it as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool Check(const std::string& what, const std::string& why) {
    ++attempted;
    if (why.empty()) return true;
    ++failed;
    std::cout << "# FAILED " << what << ": " << why << "\n";
    return false;
  }
};

// ---- Manifest ---------------------------------------------------------------

std::size_t LlcBytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : 0;
}

std::string IsaFlags() {
  std::string out;
  auto add = [&](const char* name, bool on) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  __builtin_cpu_init();
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
  return out;
}

JsonObject Manifest(const Args& a, const Workload& w) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  const auto tron = BenchTron();
  JsonObject cfg;
  cfg.Str("dataset", w.dataset)
      .Num("scale", w.scale)
      .Int("nodes", w.nodes)
      .Int("workers_per_node", w.workers_per_node)
      .Str("grouping", admm::GroupingModeName(w.grouping))
      .Str("allreduce", comm::MakeAllreduce(w.allreduce)->Name())
      .Bool("sparse_comm", w.sparse_comm)
      .Int("run_iterations", w.run_iterations)
      .Int("timed_iterations", w.timed_iterations)
      .Int("tron_max_iterations", static_cast<std::uint64_t>(tron.max_iterations))
      .Int("tron_max_cg_iterations",
           static_cast<std::uint64_t>(tron.max_cg_iterations))
      .Num("tron_gradient_tolerance", tron.gradient_tolerance)
      .Int("pool_threads", kPoolThreads)
      .Num("solve_rel_tol", kSolveTol)
      .Num("progress_rel_tol", kProgressTol);
  return JsonObject()
      .Str("workload", w.name)
      .Int("seed", a.seed)
      .Num("seconds", a.seconds)
      .Int("trace", static_cast<std::uint64_t>(a.trace))
      .Str("git_sha", a.git_sha)
      .Str("source_digest", a.source_digest)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Str("arch_flags", PERFBENCH_ARCH_FLAGS)
      .Str("psra_native_arch", PERFBENCH_NATIVE_ARCH)
      .Str("host", host)
      .Int("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("isa", IsaFlags())
      .Int("llc_bytes", LlcBytes())
      .Obj("config", cfg);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

/// Seed of the k-th problem instance of a benchmark seed (k = 0: the seed).
std::uint64_t InstanceSeed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 1000003;
}

BenchResult EndToEnd(const Args& a, const Workload& w) {
  Tally tally;
  Setup setup;
  engine::ThreadPool pool(kPoolThreads);
  const std::uint64_t iters = w.timed_iterations;

  // The timed runs are serial and timed on this thread's CPU clock. A serial
  // run never blocks, so its on-CPU time is its host time less the time the
  // host kept it off the CPU (other tenants, hypervisor steal), which on a
  // shared host moves host-wall times of one build by 2x from minute to
  // minute. Each problem instance of the seed gets an untimed serial run
  // (warm-up and reference), a pooled run that must reproduce it bitwise
  // (the cross-pool contract), and kTimedRuns timed serial runs that must
  // reproduce it too. Instances follow one another, one resident at a time,
  // until --seconds is used. Each starts with kSetupRepsPerInstance set-ups
  // of the seed, so setup_s is a median over the whole run's span. Each
  // timed run's rate and iteration-time percentiles are recorded, and the
  // results are medians over runs, so a burst of host interference moves
  // a few runs and not the result.
  std::vector<double> ips, p50, p90, sim_s, wall_ips;
  std::size_t samples = 0;
  double run_cpu_s = 0.0, run_wall_s = 0.0;
  double peak_rss_mb = 0.0;
  int instances = 0;
  // Another instance starts only if it would end at most half an instance
  // past --seconds.
  const auto t_start = Clock::now();
  double instance_s = 0.0;
  for (int k = 0;
       k < kMinInstances || Since(t_start) + 0.5 * instance_s < a.seconds;
       ++k) {
    const auto t_instance = Clock::now();
    for (int r = 0; r < kSetupRepsPerInstance; ++r) setup.Repeat(w, a.seed);
    const std::uint64_t seed = InstanceSeed(a.seed, k);
    if (k != 0) setup.problem = {};
    const admm::ConsensusProblem problem =
        k == 0 ? std::move(setup.problem) : MakeProblem(w, seed);
    const admm::PsraHgAdmm alg(MakeConfig(w, seed));
    const EngineRun ref = RunEngine(alg, problem, iters, nullptr, nullptr);
    const bool ref_ok = tally.Check("serial run", CheckRun(ref, nullptr));
    sim_s.push_back(ref.res.SystemTime());
    const EngineRun pooled = RunEngine(alg, problem, iters, &pool, nullptr);
    tally.Check("pooled run", CheckRun(pooled, ref_ok ? &ref : nullptr));
    for (int r = 0; r < kTimedRuns; ++r) {
      const EngineRun run = RunEngine(alg, problem, iters, nullptr, nullptr);
      if (tally.Check("serial run", CheckRun(run, ref_ok ? &ref : nullptr))) {
        ips.push_back(run.ItersPerCpuSec());
        wall_ips.push_back(run.ItersPerSec());
        p50.push_back(Percentile(run.iter_cpu_ms, 50));
        p90.push_back(Percentile(run.iter_cpu_ms, 90));
        samples += run.iter_cpu_ms.size();
        run_cpu_s += run.thread_cpu_s;
        run_wall_s += run.wall_s;
      }
    }
    ++instances;
    instance_s = Since(t_instance);
    // Over set-up and the seed's own instance: later instances only add
    // heap reuse patterns, which vary with how many fit in --seconds.
    if (k == 0) peak_rss_mb = PeakRssMb();
  }

  std::cout << "# " << ips.size() << " timed serial runs of " << iters
            << " iterations over " << instances << " instances (" << samples
            << " iteration-time samples)";
  if (ips.size() >= 2) {
    std::cout << "; on-CPU iters/s IQR/median across runs "
              << QuartileSpread(ips);
  }
  if (!ips.empty()) {
    std::cout << "\n# host wall of the same runs: " << Median(wall_ips)
              << " iters/s (median); " << 100.0 * (1.0 - run_cpu_s / run_wall_s)
              << "% of their wall time was spent off the CPU";
  }
  std::cout << "\n";
  BenchResult out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.failed == 0 && !ips.empty();
  const double nan = std::nan("");
  auto med = [&](const std::vector<double>& v) {
    return v.empty() ? nan : Median(v);
  };
  double sim_mean = 0.0;
  for (const double v : sim_s) sim_mean += v / static_cast<double>(sim_s.size());
  out.metrics = {
      {"iters_per_s", "1/s", med(ips)},
      {"iter_ms_p50", "ms", med(p50)},
      {"iter_ms_p90", "ms", med(p90)},
      {"setup_s", "s", Median(setup.total_s)},
      {"sim_system_s", "s", sim_mean},
      {"peak_rss_mb", "MiB", peak_rss_mb},
  };
  return out;
}

// ---- --trace 1: per-layer metrics -------------------------------------------

BenchResult Traced(const Args& a, const Workload& w) {
  Tally tally;
  const Setup setup = BuildSetup(w, a.seed);
  const auto& problem = setup.problem;
  const auto cfg = MakeConfig(w, a.seed);
  const admm::PsraHgAdmm alg(cfg);
  engine::ThreadPool pool(kPoolThreads);
  const double busy_threads = static_cast<double>(pool.size() + 1);
  const std::uint64_t iters = w.run_iterations;

  const EngineRun ref = RunEngine(alg, problem, iters, nullptr, nullptr);
  const bool ref_ok = tally.Check("serial run", CheckRun(ref, nullptr));

  // Engine: untraced pooled runs alternate with runs carrying an
  // ObsContext (spans + metrics + timeline), for obs.overhead.
  std::vector<double> ips_plain, ips_obs, solve_s;
  std::uint64_t engine_groups = 0;
  auto t0 = Clock::now();
  do {
    const EngineRun r = RunEngine(alg, problem, iters, &pool, nullptr);
    if (tally.Check("pooled run", CheckRun(r, ref_ok ? &ref : nullptr))) {
      ips_plain.push_back(r.ItersPerSec());
      // Not reached within the run: censored at the run's end.
      solve_s.push_back(r.solve_iteration != 0 ? r.solve_s : r.wall_s);
    }
    obs::ObsContext ctx;
    const EngineRun ro = RunEngine(alg, problem, iters, &pool, &ctx);
    if (tally.Check("pooled run with obs",
                    CheckRun(ro, ref_ok ? &ref : nullptr))) {
      ips_obs.push_back(ro.ItersPerSec());
      const auto& c = ctx.metrics.counters();
      const auto it = c.find("wlg.groups_formed");
      engine_groups = it != c.end() ? it->second : 0;
    }
  } while (Since(t0) < 0.4 * a.seconds);

  // Replay: spans off and on alternate, for trace.overhead; the layer
  // numbers come from the traced replays.
  ReplayOptions ropt;
  ropt.iterations = iters;
  ropt.tron = BenchTron();
  ropt.pool = &pool;
  std::vector<double> ips_replay, ips_traced;
  std::array<std::vector<double>, kNumLayers> layer_ms;
  ReplayResult last;
  double x_busy = 0.0, x_region = 0.0, x_flops = 0.0;
  std::vector<double> thread_busy;
  obs::SpanTracer last_spans;
  t0 = Clock::now();
  do {
    for (const bool spans : {false, true}) {
      obs::SpanTracer tracer;
      ropt.spans = spans;
      ropt.trace_out = spans ? &tracer : nullptr;
      ReplayResult rr;
      std::string why;
      try {
        rr = Replay(problem, cfg, ropt);
        if (!AllFinite(rr.final_z)) why = "non-finite replay output";
      } catch (const std::exception& e) {
        why = std::string("replay threw: ") + e.what();
      }
      // Fidelity: traffic must match the engine exactly, and the final
      // consensus vector bitwise.
      if (why.empty() && ref_ok &&
          (rr.elements_sent != ref.res.elements_sent ||
           rr.messages_sent != ref.res.messages_sent ||
           (engine_groups != 0 && rr.groups_formed != engine_groups))) {
        why = "replay traffic differs from the engine";
      }
      if (why.empty() && ref_ok && !BitwiseEqual(rr.final_z, ref.res.final_z)) {
        why = "replay final_z differs from the engine";
      }
      if (!tally.Check(spans ? "traced replay" : "replay", why)) continue;
      const double ips = static_cast<double>(rr.iterations) / rr.wall_s;
      if (!spans) {
        ips_replay.push_back(ips);
        continue;
      }
      ips_traced.push_back(ips);
      for (int l = 0; l < kNumLayers; ++l) {
        layer_ms[l].insert(layer_ms[l].end(), rr.layer_ms[l].begin(),
                           rr.layer_ms[l].end());
      }
      x_busy += rr.x_busy_s;
      x_region += rr.x_region_s;
      x_flops += rr.x_flops;
      thread_busy.resize(std::max(thread_busy.size(), rr.x_thread_busy_s.size()));
      for (std::size_t t = 0; t < rr.x_thread_busy_s.size(); ++t) {
        thread_busy[t] += rr.x_thread_busy_s[t];
      }
      last = std::move(rr);
      last_spans = std::move(tracer);
    }
  } while (Since(t0) < 0.45 * a.seconds);
  if (!a.trace_file.empty()) {
    std::ofstream f(a.trace_file);
    last_spans.WriteChromeJson(f);
  }

  // Kernel probes at the engine's final iterate (zeros if the run failed).
  const auto d = static_cast<std::size_t>(problem.dim());
  const auto spmv = ProbeSpmv(
      problem.shards,
      ref.res.final_z.size() == d ? ref.res.final_z : std::vector<double>(d),
      0.3);
  const auto dense = ProbeDense(d, 0.2);
  const std::size_t llc = LlcBytes();
  const std::size_t stream_bytes =
      llc == 0 ? kStreamCapBytes : std::min(4 * llc, kStreamCapBytes);
  const auto stream = ProbeStream(stream_bytes, 0.3);

  BenchResult out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.failed == 0 && !ips_traced.empty();
  const double nan = std::nan("");
  auto med = [&](const std::vector<double>& v) {
    return v.empty() ? nan : Median(v);
  };
  auto layer = [&](Layer l) { return med(layer_ms[l]); };
  const double n_iters = static_cast<double>(last.iterations);
  const double solves = static_cast<double>(last.solves);
  double max_thread = 0.0, sum_thread = 0.0;
  for (const double t : thread_busy) {
    max_thread = std::max(max_thread, t);
    sum_thread += t;
  }
  const double ref_iters = static_cast<double>(ref.res.iterations_run);

  if (ref.solve_iteration == 0) {
    std::cout << "# residuals did not reach " << kSolveTol
              << " x iteration 1 within " << iters
              << " iterations: admm.iters_to_tol and admm.solve_s are "
                 "censored at the run's end\n";
  }
  std::cout << "# replay fidelity: final_z "
            << (BitwiseEqual(last.final_z, ref.res.final_z) ? "bitwise"
                                                            : "DIFFERS")
            << ", elements " << last.elements_sent << " vs engine "
            << ref.res.elements_sent << ", messages " << last.messages_sent
            << " vs engine " << ref.res.messages_sent << ", groups "
            << last.groups_formed << " vs engine " << engine_groups << "\n";
  std::cout << "# replay iteration " << layer(kIteration)
            << " ms (median); self ms:";
  for (int l = kXUpdate; l < kNumLayers; ++l) {
    if (l == kXUpdateBusy) continue;
    std::cout << " " << LayerName(static_cast<Layer>(l)) << "="
              << layer(static_cast<Layer>(l));
  }
  std::cout << "\n# stream ceiling array " << (stream_bytes >> 20)
            << " MiB, LLC " << (llc >> 20) << " MiB"
            << (stream_bytes >= 4 * llc ? "" : " (below 4x LLC: not a ceiling)")
            << "\n";

  out.metrics = {
      {"data.generate_s", "s", Median(setup.generate_s)},
      {"data.partition_s", "s", Median(setup.partition_s)},
      {"linalg.spmv_us", "us",
       spmv.seconds / static_cast<double>(problem.shards.size()) * 1e6},
      {"linalg.spmv_calls_per_iter", "count",
       2.0 * (solves + static_cast<double>(last.tron_iterations) +
              static_cast<double>(last.cg_iterations)) /
           n_iters},
      {"linalg.spmv_gbps", "GB/s", spmv.Gbps()},
      {"linalg.dense_gbps", "GB/s", dense.Gbps()},
      {"linalg.stream_gbps", "GB/s", stream.Gbps()},
      {"solver.xupdate_ms", "ms", layer(kXUpdate)},
      {"solver.xupdate_busy_ms", "ms", layer(kXUpdateBusy)},
      {"solver.gflops", "GFLOP/s", x_flops / x_busy * 1e-9},
      {"solver.tron_iters", "count",
       static_cast<double>(last.tron_iterations) / solves},
      {"solver.cg_iters", "count",
       static_cast<double>(last.cg_iterations) / solves},
      {"solver.zy_ms", "ms", layer(kZy)},
      {"admm.residual_ms", "ms", layer(kResidual)},
      {"admm.iters_to_tol", "count",
       static_cast<double>(ref.solve_iteration != 0 ? ref.solve_iteration
                                                    : iters)},
      {"admm.solve_s", "s", med(solve_s)},
      {"admm.final_objective", "objective", ref.res.final_objective},
      {"comm.allreduce_ms", "ms", layer(kAllreduce)},
      {"comm.sparsify_ms", "ms", layer(kSparsify)},
      {"comm.intra_ms", "ms", layer(kIntra)},
      {"comm.elements_per_iter", "count",
       static_cast<double>(ref.res.elements_sent) / ref_iters},
      {"comm.messages_per_iter", "count",
       static_cast<double>(ref.res.messages_sent) / ref_iters},
      {"wlg.cycle_us", "us", layer(kGrouping) * 1e3},
      {"wlg.groups_per_iter", "count",
       static_cast<double>(last.groups_formed) / n_iters},
      {"simnet.ledger_ms", "ms", layer(kLedger)},
      {"engine.pool_speedup", "ratio", med(ips_plain) / ref.ItersPerSec()},
      {"engine.xupdate_efficiency", "ratio",
       x_busy / (x_region * busy_threads)},
      {"engine.xupdate_imbalance", "ratio",
       max_thread / (sum_thread / busy_threads)},
      {"obs.overhead", "ratio", med(ips_plain) / med(ips_obs) - 1.0},
      {"trace.overhead", "ratio", med(ips_replay) / med(ips_traced) - 1.0},
      {"replay.iteration_ms", "ms", layer(kIteration)},
      {"replay.unattributed_ms", "ms", layer(kUnattributed)},
  };
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    const Workload& w = *FindWorkload(args.workload);
    std::cout << "manifest " << Manifest(args, w).Render() << "\n";
    const BenchResult result = args.trace == 0 ? EndToEnd(args, w)
                                               : Traced(args, w);
    for (const auto& m : result.metrics) {
      std::cout << "# " << m.name << " = " << FormatNumber(m.value) << " "
                << m.unit << "\n";
    }
    if (!result.correct) std::cout << "# correctness checks FAILED\n";
    std::cout << result.Render() << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
