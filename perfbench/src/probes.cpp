#include "probes.hpp"

#include <algorithm>
#include <chrono>

#include "linalg/dense_ops.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `unit` repeatedly for about `budget_s` (at least 5 times) and
/// returns the median seconds per call. `sink` keeps results observable.
template <typename Fn>
RateProbe Repeat(double budget_s, double bytes, Fn&& unit) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < 5 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             budget_s) {
    const auto t0 = Clock::now();
    unit();
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const std::size_t samples = times.size();
  RateProbe p;
  p.seconds = Median(std::move(times));
  p.bytes = bytes;
  p.samples = samples;
  return p;
}

volatile double g_sink = 0.0;

}  // namespace

RateProbe ProbeSpmv(const std::vector<psra::data::Dataset>& shards,
                    const std::vector<double>& x, double budget_s) {
  std::vector<std::vector<double>> rows_out(shards.size());
  std::vector<double> grad(x.size(), 0.0);
  double bytes = 0.0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& m = shards[s].features();
    rows_out[s].assign(m.rows(), 0.0);
    const double nnz = static_cast<double>(m.nnz());
    const double rows = static_cast<double>(m.rows());
    // Per pass: 16 B per entry (value + index) and 8 B per row pointer;
    // Multiply gathers x (8 B per entry) and writes rows; the transpose
    // reads the row vector and read-modify-writes the output (16 B/entry).
    bytes += 2.0 * (16.0 * nnz + 8.0 * (rows + 1.0)) + 8.0 * nnz +
             8.0 * rows + 8.0 * rows + 16.0 * nnz;
  }
  return Repeat(budget_s, bytes, [&] {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const auto& m = shards[s].features();
      m.Multiply(x, rows_out[s]);
      m.TransposeMultiplyAdd(rows_out[s], grad);
    }
    g_sink = g_sink + grad[0];
  });
}

RateProbe ProbeDense(std::size_t dim, double budget_s) {
  std::vector<double> x(dim, 1e-3), y(dim, 1.0);
  // A batch of calls per sample keeps each timed unit well above the clock
  // resolution at small dims.
  const std::size_t batch = std::max<std::size_t>(1, (1u << 20) / dim);
  auto p = Repeat(budget_s, 24.0 * static_cast<double>(dim * batch), [&] {
    double acc = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
      acc += psra::linalg::AxpyNormSq(b % 2 == 0 ? 1e-9 : -1e-9, x, y);
    }
    g_sink = g_sink + acc;
  });
  return p;
}

RateProbe ProbeStream(std::size_t array_bytes, double budget_s) {
  const std::size_t n = array_bytes / (2 * sizeof(double));
  std::vector<double> x(n, 1e-3), y(n, 1.0);
  return Repeat(budget_s, 24.0 * static_cast<double>(n), [&] {
    g_sink = g_sink + psra::linalg::AxpyNormSq(1e-9, x, y);
  });
}

}  // namespace perfbench
