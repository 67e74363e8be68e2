// Tests of the benchmark's own helpers: order statistics, tolerance-crossing
// detection in the progress sink, and the result record's JSON round trip.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "obs/json.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "tolerance.hpp"

namespace perfbench {
namespace {

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 9.1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0}, 90), 4.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_THROW(Percentile({}, 50), std::exception);
  EXPECT_THROW(Percentile({1.0}, 101), std::exception);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(Stats, QuantilesMatchPythonExclusiveMethod) {
  EXPECT_EQ(Quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4),
            (std::vector<double>{2.75, 5.5, 8.25}));
  EXPECT_EQ(Quantiles({3.5, 1.25, 9.0, 4.0}, 4),
            (std::vector<double>{1.8125, 3.75, 7.75}));
  EXPECT_EQ(Quantiles({2.0, 7.0}, 4), (std::vector<double>{0.75, 4.5, 8.25}));
  EXPECT_EQ(Quantiles({5.0, 1.0, 3.0}, 4),
            (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_DOUBLE_EQ(QuartileSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_THROW(Quantiles({1.0}, 4), std::exception);
}

psra::admm::ProgressUpdate Update(std::uint64_t it, double primal,
                                  double dual) {
  psra::admm::ProgressUpdate u;
  u.iteration = it;
  u.primal_residual = primal;
  u.dual_residual = dual;
  return u;
}

TEST(ToleranceSink, DetectsFirstIterationWithBothResidualsAtTolerance) {
  using Clock = ToleranceSink::Clock;
  ToleranceSink sink({1e-3, 1e-1});
  const auto t0 = Clock::time_point{} + std::chrono::seconds(100);
  sink.Start(t0, 8);
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  sink.Observe(Update(1, 2.0, 4.0), at(50), 7.0);
  sink.Observe(Update(2, 1e-3, 1.0), at(60), 7.004);     // primal only
  sink.Observe(Update(3, 2.1e-3, 0.3), at(75), 7.010);   // 1e-1 reached
  sink.Observe(Update(4, 2.1e-3, 3e-3), at(85), 7.012);  // dual only at 1e-3
  sink.Observe(Update(5, 2e-3, 3.9e-3), at(95), 7.020);  // both at 1e-3
  sink.Observe(Update(6, 1e-6, 1e-6), at(100), 7.025);
  EXPECT_EQ(sink.crossed_iteration(0), 5u);
  EXPECT_DOUBLE_EQ(sink.crossed_s(0), 0.095);
  EXPECT_EQ(sink.crossed_iteration(1), 3u);
  EXPECT_DOUBLE_EQ(sink.crossed_s(1), 0.075);
  // Gaps between consecutive thread-CPU stamps; iteration 1 (run
  // construction) is not an iteration time.
  ASSERT_EQ(sink.iter_cpu_ms().size(), 5u);
  EXPECT_NEAR(sink.iter_cpu_ms()[0], 4.0, 1e-9);
  EXPECT_NEAR(sink.iter_cpu_ms()[1], 6.0, 1e-9);
  EXPECT_NEAR(sink.iter_cpu_ms()[4], 5.0, 1e-9);
}

TEST(ToleranceSink, NeverCrossedIsReportedAsZero) {
  ToleranceSink sink({1e-3});
  const auto t0 = ToleranceSink::Clock::now();
  sink.Start(t0, 3);
  sink.Observe(Update(1, 1.0, 1.0), t0);
  sink.Observe(Update(2, 0.5, 1e-4), t0);
  sink.Observe(Update(3, 0.1, 1e-5), t0);
  EXPECT_EQ(sink.crossed_iteration(0), 0u);
  // Start resets; iteration 1 alone never counts, even at zero residuals.
  sink.Start(t0, 1);
  sink.Observe(Update(1, 0.0, 0.0), t0);
  EXPECT_EQ(sink.crossed_iteration(0), 0u);
  EXPECT_TRUE(sink.iter_cpu_ms().empty());
}

TEST(Report, ResultRecordRoundTripsThroughObsJsonParse) {
  BenchResult r;
  r.correct = true;
  r.attempted = 12;
  r.failed = 0;
  r.metrics = {{"iters_per_s", "1/s", 187.53901234567891},
               {"setup_s", "s", 0.0123456789012345678},
               {"sim_system_s", "s", 3.0}};
  const auto v = psra::obs::json::Parse(r.Render());
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 4u);
  EXPECT_EQ(v.members[0].first, "correct");
  EXPECT_EQ(v.members[3].first, "metrics");
  EXPECT_TRUE(v.Find("correct")->boolean);
  EXPECT_EQ(v.Find("attempted")->number, 12.0);
  EXPECT_EQ(v.Find("failed")->number, 0.0);
  const auto* metrics = v.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->members.size(), 3u);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto* m = metrics->Find(r.metrics[i].name);
    ASSERT_NE(m, nullptr) << r.metrics[i].name;
    // Every digit survives: the parsed value is the written double.
    EXPECT_EQ(m->Find("value")->number, r.metrics[i].value);
    EXPECT_EQ(m->Find("unit")->str, r.metrics[i].unit);
  }
}

TEST(Report, NonFiniteValuesAndControlCharactersStayValidJson) {
  BenchResult r;
  r.metrics = {{"a", "ms", std::numeric_limits<double>::quiet_NaN()},
               {"b", "ms", std::numeric_limits<double>::infinity()}};
  const auto v = psra::obs::json::Parse(r.Render());
  EXPECT_EQ(v.Find("metrics")->Find("a")->Find("value")->kind,
            psra::obs::json::Value::Kind::kNull);
  const auto o = psra::obs::json::Parse(
      JsonObject().Str("s", "quote\" slash\\ tab\t nl\n bell\a").Render());
  // obs::json keeps quotes and backslashes and folds other escapes.
  EXPECT_EQ(o.Find("s")->str.substr(0, 13), "quote\" slash\\");
}

}  // namespace
}  // namespace perfbench
