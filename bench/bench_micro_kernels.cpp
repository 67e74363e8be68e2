// Engineering micro-benchmarks (google-benchmark): host throughput of the
// numeric kernels and collectives. These are not paper figures; they guard
// against performance regressions in the building blocks.
//
// Invoked with --kernels-out <path> this binary instead runs the gated
// solver-kernel microbench (DESIGN.md §14): blocked-vs-scalar ratios for the
// linalg kernels plus the Gram-vs-CG x-update comparison on a tall url_like
// shard, written as BENCH_kernels.json and diffed in CI like
// BENCH_hotpath.json. All other arguments delegate to google-benchmark.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "comm/collective.hpp"
#include "comm/group.hpp"
#include "data/synthetic.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/gram.hpp"
#include "linalg/sparse_vector.hpp"
#include "solver/direct.hpp"
#include "solver/logistic.hpp"
#include "solver/tron.hpp"
#include "support/rng.hpp"

namespace {

using namespace psra;

void BM_DenseAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::DenseVector x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    linalg::Axpy(0.9, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseAxpy)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_DenseDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::DenseVector x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseDot)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_SoftThreshold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  linalg::DenseVector x(n), out(n);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    linalg::SoftThreshold(x, 0.5, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SoftThreshold)->Arg(1 << 14);

void BM_SparseSum(benchmark::State& state) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const std::uint64_t dim = nnz * 8;
  auto make = [&] {
    auto picks = rng.SampleWithoutReplacement(dim, nnz);
    std::vector<linalg::SparseVector::Index> idx(picks.begin(), picks.end());
    std::vector<double> val(nnz, 1.0);
    return linalg::SparseVector(dim, std::move(idx), std::move(val));
  };
  const auto a = make(), b = make();
  for (auto _ : state) {
    auto s = linalg::SparseVector::Sum(a, b);
    benchmark::DoNotOptimize(s.nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * nnz));
}
BENCHMARK(BM_SparseSum)->Arg(1 << 10)->Arg(1 << 14);

void BM_CsrMultiply(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_features = 4096;
  spec.num_train = static_cast<std::uint64_t>(state.range(0));
  spec.num_test = 1;
  spec.mean_row_nnz = 32;
  const auto gen = data::GenerateSynthetic(spec);
  linalg::DenseVector x(spec.num_features, 0.5), out(spec.num_train);
  for (auto _ : state) {
    gen.train.features().Multiply(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.train.nnz()));
}
BENCHMARK(BM_CsrMultiply)->Arg(512)->Arg(4096);

void BM_TronSolve(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_features = 1024;
  spec.num_train = 256;
  spec.num_test = 1;
  spec.mean_row_nnz = 24;
  const auto gen = data::GenerateSynthetic(spec);
  solver::ProximalLogistic f(&gen.train, 1.0);
  linalg::DenseVector v(spec.num_features, 0.01), z(spec.num_features, 0.0);
  f.SetIterationTerms(v, z);
  solver::TronOptions opt;
  opt.max_iterations = 10;
  opt.max_cg_iterations = 10;
  for (auto _ : state) {
    linalg::DenseVector x(spec.num_features, 0.0);
    const auto res = solver::TronMinimize(f, x, opt);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_TronSolve);

template <comm::AllreduceKind kKind>
void BM_SparseAllreduce(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::size_t c = 512;
  const std::uint64_t dim = n * c * 2;
  simnet::Topology topo(n, 1);
  simnet::CostModel cost;
  std::vector<simnet::Rank> members(n);
  for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
  comm::GroupComm group(&topo, &cost, members);

  Rng rng(3);
  std::vector<linalg::SparseVector> inputs;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto picks = rng.SampleWithoutReplacement(dim, c);
    std::vector<linalg::SparseVector::Index> idx(picks.begin(), picks.end());
    std::vector<double> val(c, 1.0);
    inputs.emplace_back(dim, std::move(idx), std::move(val));
  }
  const std::vector<simnet::VirtualTime> starts(n, 0.0);
  const auto alg = comm::MakeAllreduce(kKind);
  for (auto _ : state) {
    auto res = alg->RunSparse(group, inputs, starts);
    benchmark::DoNotOptimize(res.stats.all_done);
  }
}
BENCHMARK(BM_SparseAllreduce<comm::AllreduceKind::kRing>)->Arg(8)->Arg(32);
BENCHMARK(BM_SparseAllreduce<comm::AllreduceKind::kPsr>)->Arg(8)->Arg(32);
BENCHMARK(BM_SparseAllreduce<comm::AllreduceKind::kRhd>)->Arg(8)->Arg(32);
BENCHMARK(BM_SparseAllreduce<comm::AllreduceKind::kTree>)->Arg(8)->Arg(32);

void BM_SparseVectorSlice(benchmark::State& state) {
  Rng rng(5);
  const std::size_t nnz = 1 << 14;
  const std::uint64_t dim = nnz * 8;
  auto picks = rng.SampleWithoutReplacement(dim, nnz);
  std::vector<linalg::SparseVector::Index> idx(picks.begin(), picks.end());
  std::vector<double> val(nnz, 1.0);
  const linalg::SparseVector v(dim, std::move(idx), std::move(val));
  for (auto _ : state) {
    auto s = v.Slice(dim / 4, dim / 2);
    benchmark::DoNotOptimize(s.nnz());
  }
}
BENCHMARK(BM_SparseVectorSlice);

void BM_LogisticGradient(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_features = 4096;
  spec.num_train = 1024;
  spec.num_test = 1;
  spec.mean_row_nnz = 32;
  const auto gen = data::GenerateSynthetic(spec);
  solver::ProximalLogistic f(&gen.train, 1.0);
  linalg::DenseVector v(spec.num_features, 0.01), z(spec.num_features, 0.0);
  f.SetIterationTerms(v, z);
  linalg::DenseVector x(spec.num_features, 0.1), grad(spec.num_features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ValueAndGradient(x, grad));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.train.nnz()));
}
BENCHMARK(BM_LogisticGradient);

// ---------------------------------------------------------------------------
// Gated solver-kernel microbench (--kernels-out): emits BENCH_kernels.json.
// ---------------------------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` seconds for one call of `fn`, where each timed sample runs
/// `inner` calls back to back (so sub-microsecond kernels still get a
/// multi-millisecond sample).
template <typename Fn>
double TimeBest(int reps, int inner, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = NowSeconds();
    for (int k = 0; k < inner; ++k) fn();
    const double dt = (NowSeconds() - t0) / inner;
    best = std::min(best, dt);
  }
  return best;
}

/// A raw copy of the CSR arrays so the scalar reference loops run over plain
/// pointers — the same access pattern the pre-blocking CsrMatrix kernels had.
struct RawCsr {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> rp;
  std::vector<std::uint64_t> ci;
  std::vector<double> va;
};

RawCsr ExtractRaw(const linalg::CsrMatrix& m) {
  RawCsr r;
  r.rows = static_cast<std::size_t>(m.rows());
  r.cols = static_cast<std::size_t>(m.cols());
  r.rp.reserve(r.rows + 1);
  r.rp.push_back(0);
  for (std::uint64_t row = 0; row < m.rows(); ++row) {
    const auto idx = m.RowIndices(row);
    const auto val = m.RowValues(row);
    r.ci.insert(r.ci.end(), idx.begin(), idx.end());
    r.va.insert(r.va.end(), val.begin(), val.end());
    r.rp.push_back(r.ci.size());
  }
  return r;
}

void ScalarCsrMultiply(const RawCsr& m, std::span<const double> x,
                       std::span<double> out) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    double acc = 0.0;
    for (std::size_t k = m.rp[r]; k < m.rp[r + 1]; ++k) {
      acc += m.va[k] * x[static_cast<std::size_t>(m.ci[k])];
    }
    out[r] = acc;
  }
}

void ScalarCsrTransposeMultiplyAdd(const RawCsr& m, std::span<const double> v,
                                   std::span<double> out) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (std::size_t k = m.rp[r]; k < m.rp[r + 1]; ++k) {
      out[static_cast<std::size_t>(m.ci[k])] += vr * m.va[k];
    }
  }
}

void ScalarGemv(std::span<const double> a, std::size_t rows, std::size_t cols,
                std::span<const double> x, std::span<double> y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += row[j] * x[j];
    y[r] = acc;
  }
}

void ScalarGemvT(std::span<const double> a, std::size_t rows, std::size_t cols,
                 std::span<const double> x, std::span<double> y) {
  linalg::SetZero(y);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    const double xr = x[r];
    for (std::size_t j = 0; j < cols; ++j) y[j] += xr * row[j];
  }
}

struct KernelRow {
  std::string name;
  double scalar_s = 0.0;
  double blocked_s = 0.0;
  double ratio() const { return blocked_s > 0 ? scalar_s / blocked_s : 0.0; }
};

/// Matrix-free CG on the normal equations (A^T A + rho I) x = rhs — the
/// least-squares x-update a worker WITHOUT the cached Gram has to run every
/// ADMM iteration, streaming the shard twice per CG step. The cached-Gram
/// direct path solves the identical subproblem from its factor.
int LsCgSolve(const linalg::CsrMatrix& m, std::span<const double> rhs,
              double rho, std::span<double> x, linalg::DenseVector& r,
              linalg::DenseVector& p, linalg::DenseVector& hp,
              linalg::DenseVector& ax, double tol, int max_iters) {
  const std::size_t d = x.size();
  linalg::SetZero(x);
  for (std::size_t i = 0; i < d; ++i) {
    r[i] = rhs[i];
    p[i] = rhs[i];
    hp[i] = rho * rhs[i];
  }
  double rr = linalg::Dot(r, r);
  const double stop = tol * tol * rr;
  int iters = 0;
  while (iters < max_iters && rr > stop) {
    ++iters;
    m.Multiply(p, ax);
    m.TransposeMultiplyAdd(ax, hp);  // hp already holds rho * p
    const double php = linalg::Dot(p, hp);
    if (php <= 0.0) break;
    const double alpha = rr / php;
    linalg::Axpy(alpha, p, x);
    const double rr_new = linalg::AxpyNormSq(-alpha, hp, r);
    const double beta = rr_new / rr;
    linalg::XpayNormSq(beta, r, p, rho, hp);
    rr = rr_new;
  }
  return iters;
}

int RunKernelGate(const std::string& out_path, bool quick) {
  const int reps = quick ? 3 : 7;
  std::vector<KernelRow> rows;

  // -- CSR kernels on a url_tall-shaped shard (tall, ~12 nnz/row). --------
  data::SyntheticSpec csr_spec;
  csr_spec.name = "url_tall_shard";
  csr_spec.num_features = 256;
  csr_spec.num_train = quick ? 8192 : 24576;
  csr_spec.num_test = 1;
  csr_spec.mean_row_nnz = 12.0;
  csr_spec.feature_skew = 1.2;
  csr_spec.seed = 46;
  const auto gen = data::GenerateSynthetic(csr_spec);
  const auto& mat = gen.train.features();
  const RawCsr raw = ExtractRaw(mat);
  const auto nrows = static_cast<std::size_t>(mat.rows());
  const auto ncols = static_cast<std::size_t>(mat.cols());

  {
    linalg::DenseVector x(ncols, 0.5), out_s(nrows), out_b(nrows);
    KernelRow k{"csr_multiply"};
    k.scalar_s = TimeBest(reps, 50, [&] { ScalarCsrMultiply(raw, x, out_s); });
    k.blocked_s = TimeBest(reps, 50, [&] { mat.Multiply(x, out_b); });
    rows.push_back(k);
  }
  {
    linalg::DenseVector v(nrows, 0.25), out_s(ncols, 0.0), out_b(ncols, 0.0);
    KernelRow k{"csr_transpose_multiply_add"};
    k.scalar_s =
        TimeBest(reps, 50, [&] { ScalarCsrTransposeMultiplyAdd(raw, v, out_s); });
    k.blocked_s = TimeBest(reps, 50, [&] { mat.TransposeMultiplyAdd(v, out_b); });
    rows.push_back(k);
  }

  // -- Dense register-blocked gemv / gemv_t. ------------------------------
  {
    const std::size_t n = 512;
    Rng rng(7);
    linalg::DenseVector a(n * n);
    for (auto& v : a) v = rng.NextGaussian();
    linalg::DenseVector x(n, 0.5), y_s(n), y_b(n);
    KernelRow k{"gemv"};
    k.scalar_s = TimeBest(reps, 200, [&] { ScalarGemv(a, n, n, x, y_s); });
    k.blocked_s = TimeBest(reps, 200, [&] { linalg::Gemv(a, n, n, x, y_b); });
    rows.push_back(k);
    KernelRow kt{"gemv_t"};
    kt.scalar_s = TimeBest(reps, 200, [&] { ScalarGemvT(a, n, n, x, y_s); });
    kt.blocked_s = TimeBest(reps, 200, [&] { linalg::GemvT(a, n, n, x, y_b); });
    rows.push_back(kt);
  }

  // -- Fused axpy + ||y||^2 vs the separate Axpy/Dot pair. ----------------
  {
    const std::size_t n = 1 << 16;
    linalg::DenseVector x(n, 1e-8), y(n, 0.5);
    double sink = 0.0;
    KernelRow k{"fused_axpy_normsq"};
    k.scalar_s = TimeBest(reps, 200, [&] {
      linalg::Axpy(1e-9, x, y);
      sink += linalg::Dot(y, y);
    });
    k.blocked_s = TimeBest(reps, 200, [&] {
      sink += linalg::AxpyNormSq(1e-9, x, y);
    });
    benchmark::DoNotOptimize(sink);
    rows.push_back(k);
  }

  // -- x-update on the tall shard: the least-squares subproblem solved
  //    matrix-free by CG on the normal equations (streams the shard every
  //    iteration) vs the cached-Gram direct solve (factor once, then a pair
  //    of packed triangular substitutions). Plus the logistic TRON variant
  //    with the Gram-accelerated Hessian, reported as a tripwire ratio. ----
  solver::TronOptions topt;
  topt.max_iterations = 10;
  topt.max_cg_iterations = 10;
  topt.gradient_tolerance = 1e-2;
  linalg::DenseVector v(ncols, 0.01), z(ncols, 0.0), x(ncols, 0.0);
  solver::TronWorkspace tws;
  const int solve_reps = quick ? 3 : 8;

  solver::ProximalLogistic f_cg(&gen.train, 1.0);
  f_cg.SetIterationTerms(v, z);
  const double tron_cg_solve_s = TimeBest(solve_reps, 1, [&] {
    linalg::SetZero(x);
    solver::TronMinimize(f_cg, x, topt, nullptr, tws);
  });

  solver::ProximalLogistic f_gram(&gen.train, 1.0);
  f_gram.SetUseGramHessian(true);
  f_gram.SetIterationTerms(v, z);
  const double tron_gram_solve_s = TimeBest(solve_reps, 1, [&] {
    linalg::SetZero(x);
    solver::TronMinimize(f_gram, x, topt, nullptr, tws);
  });

  // Shared right-hand side A^T b - v + rho z (both solvers cache A^T b; the
  // per-iteration terms are what change inside ADMM).
  const double rho = 1.0;
  linalg::DenseVector atb(ncols, 0.0);
  mat.TransposeMultiplyAdd(gen.train.labels(), atb);
  linalg::DenseVector rhs(ncols);
  for (std::size_t i = 0; i < ncols; ++i) {
    rhs[i] = atb[i] - v[i] + rho * z[i];
  }
  linalg::DenseVector cg_r(ncols), cg_p(ncols), cg_hp(ncols), cg_ax(nrows);
  int ls_cg_iters = 0;
  const double ls_cg_solve_s = TimeBest(solve_reps, 1, [&] {
    ls_cg_iters = LsCgSolve(mat, rhs, rho, x, cg_r, cg_p, cg_hp, cg_ax,
                            /*tol=*/1e-6, /*max_iters=*/4 * 256);
  });

  const double t_build0 = NowSeconds();
  solver::CachedGramLeastSquares direct(&mat, gen.train.labels(), rho);
  const double direct_build_s = NowSeconds() - t_build0;
  const double t_first0 = NowSeconds();
  direct.Solve(v, z, x);
  const double direct_first_solve_s = NowSeconds() - t_first0;
  const double direct_resolve_s =
      TimeBest(solve_reps, 20, [&] { direct.Solve(v, z, x); });
  double rho_flip = 2.0;
  const double direct_refactor_s = TimeBest(solve_reps, 5, [&] {
    direct.SetRho(rho_flip);
    rho_flip = rho_flip == 2.0 ? 4.0 : 2.0;
    direct.Solve(v, z, x);
  });

  // Headline gate: per-ADMM-iteration x-update cost, steady state (the
  // factor is cached; CG re-streams the shard every time).
  const double gram_over_cg =
      direct_resolve_s > 0 ? ls_cg_solve_s / direct_resolve_s : 0.0;
  const double tron_gram_over_cg =
      tron_gram_solve_s > 0 ? tron_cg_solve_s / tron_gram_solve_s : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "{\n";
  out << "  \"benchmark\": \"kernels\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"config\": {\"shard_rows\": " << nrows
      << ", \"shard_cols\": " << ncols
      << ", \"tron_outer\": " << topt.max_iterations
      << ", \"tron_cg\": " << topt.max_cg_iterations << "},\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& k = rows[i];
    out << "    {\"name\": \"" << k.name << "\", \"scalar_us\": "
        << k.scalar_s * 1e6 << ", \"blocked_us\": " << k.blocked_s * 1e6
        << ", \"blocked_over_scalar\": " << k.ratio() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"xupdate\": {\n";
  out << "    \"rows\": " << nrows << ",\n";
  out << "    \"cols\": " << ncols << ",\n";
  out << "    \"ls_cg_solve_ms\": " << ls_cg_solve_s * 1e3 << ",\n";
  out << "    \"ls_cg_iters\": " << ls_cg_iters << ",\n";
  out << "    \"direct_gram_build_ms\": " << direct_build_s * 1e3 << ",\n";
  out << "    \"direct_first_solve_ms\": " << direct_first_solve_s * 1e3
      << ",\n";
  out << "    \"direct_resolve_ms\": " << direct_resolve_s * 1e3 << ",\n";
  out << "    \"direct_refactor_ms\": " << direct_refactor_s * 1e3 << ",\n";
  out << "    \"tron_cg_solve_ms\": " << tron_cg_solve_s * 1e3 << ",\n";
  out << "    \"tron_gram_solve_ms\": " << tron_gram_solve_s * 1e3 << "\n";
  out << "  },\n";
  out << "  \"tron_gram_over_cg\": " << tron_gram_over_cg << ",\n";
  out << "  \"gram_over_cg\": " << gram_over_cg << "\n";
  out << "}\n";
  out.close();

  std::cout << "kernel gate: gram_over_cg=" << gram_over_cg
            << " tron_gram_over_cg=" << tron_gram_over_cg;
  for (const auto& k : rows) {
    std::cout << " " << k.name << "=" << k.ratio();
  }
  std::cout << " -> " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string kernels_out;
  bool quick = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels-out" && i + 1 < argc) {
      kernels_out = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!kernels_out.empty()) {
    return RunKernelGate(kernels_out, quick);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
