// Tests for the execution engine: thread pool and time ledger.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "engine/ledger.hpp"
#include "engine/thread_pool.hpp"
#include "support/status.hpp"

namespace psra::engine {
namespace {

// ------------------------------------------------------------ thread pool ----

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  pool.ForceParallelDispatchForTesting();
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WorksWithMoreTasksThanThreads) {
  ThreadPool pool(2);
  pool.ForceParallelDispatchForTesting();
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(1000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadFallsBackToSerial) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.ParallelFor(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  pool.ForceParallelDispatchForTesting();
  EXPECT_THROW(pool.ParallelFor(16,
                                [&](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> n{0};
  pool.ParallelFor(8, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  pool.ForceParallelDispatchForTesting();
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> n{0};
    pool.ParallelFor(10, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 10);
  }
}

// ------------------------------------------------- chunked ParallelFor ----

TEST(ThreadPoolChunked, CoversRangeInGrainSizedChunks) {
  ThreadPool pool(4);
  pool.ForceParallelDispatchForTesting();
  std::vector<std::atomic<int>> hits(103);
  pool.ParallelFor(103, /*grain=*/8, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(end - begin, 8u);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolChunked, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, /*grain=*/16,
                   [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolChunked, CountSmallerThanThreads) {
  ThreadPool pool(8);
  pool.ForceParallelDispatchForTesting();
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, /*grain=*/1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolChunked, ZeroGrainBehavesAsOne) {
  ThreadPool pool(2);
  pool.ForceParallelDispatchForTesting();
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(10, /*grain=*/0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end, begin + 1);
    sum.fetch_add(begin);
  });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolChunked, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  pool.ForceParallelDispatchForTesting();
  EXPECT_THROW(
      pool.ParallelFor(64, /*grain=*/4,
                       [&](std::size_t begin, std::size_t) {
                         if (begin == 32) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  std::atomic<int> n{0};
  pool.ParallelFor(12, /*grain=*/4, [&](std::size_t begin, std::size_t end) {
    n.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(n.load(), 12);
}

TEST(ThreadPoolChunked, NestedCallsRunInline) {
  ThreadPool pool(4);
  pool.ForceParallelDispatchForTesting();
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, /*grain=*/2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Re-entrant use from a body must fall back to serial, not deadlock.
      pool.ParallelFor(4, /*grain=*/2, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 32);
}

// Per-thread scratch indexed by CurrentSlot() must never be shared by two
// bodies running at once: each body marks its slot busy and checks nobody
// else holds it.
TEST(ThreadPool, CurrentSlotIsExclusivePerRunningBody) {
  ThreadPool pool(3);
  pool.ForceParallelDispatchForTesting();
  ASSERT_EQ(pool.slots(), 4u);
  EXPECT_EQ(pool.CurrentSlot(), 0u);  // the calling thread
  std::vector<std::atomic<int>> busy(pool.slots());
  std::atomic<int> out_of_range{0}, shared{0};
  pool.ParallelFor(400, [&](std::size_t) {
    const std::size_t slot = pool.CurrentSlot();
    if (slot >= busy.size()) {
      out_of_range.fetch_add(1);
      return;
    }
    if (busy[slot].fetch_add(1) != 0) shared.fetch_add(1);
    volatile double sink = 0.0;
    for (int k = 0; k < 2000; ++k) sink = sink + k;
    busy[slot].fetch_sub(1);
  });
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(shared.load(), 0);
  // Another pool's threads are not this pool's workers.
  ThreadPool other(2);
  other.ForceParallelDispatchForTesting();
  std::atomic<int> foreign{0};
  other.ParallelFor(8, [&](std::size_t) {
    if (pool.CurrentSlot() != 0) foreign.fetch_add(1);
  });
  EXPECT_EQ(foreign.load(), 0);
}

// ---------------------------------------------------------- BlockedReduce ----

TEST(BlockedReduce, MatchesSerialSumBitwise) {
  std::vector<double> v(1237);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto partial = [&](std::size_t begin, std::size_t end) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += v[i];
    return acc;
  };
  auto combine = [](double acc, double p) { return acc + p; };
  std::vector<double> scratch;
  const double serial = BlockedReduce<double>(nullptr, v.size(), 64, scratch,
                                              0.0, partial, combine);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    pool.ForceParallelDispatchForTesting();
    std::vector<double> scratch2;
    const double pooled = BlockedReduce<double>(&pool, v.size(), 64, scratch2,
                                                0.0, partial, combine);
    // Bitwise equality: the fold order depends only on the block structure.
    EXPECT_EQ(serial, pooled) << "threads=" << threads;
  }
}

TEST(BlockedReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  std::vector<int> scratch;
  const int out = BlockedReduce<int>(
      &pool, 0, 16, scratch, 7,
      [](std::size_t, std::size_t) { return 1; },
      [](int acc, int p) { return acc + p; });
  EXPECT_EQ(out, 7);
}

TEST(SerialForHelper, RunsInOrder) {
  std::vector<std::size_t> order;
  SerialFor(4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------- ledger ----

TEST(Ledger, ChargesAdvanceClockAndBuckets) {
  TimeLedger ledger(2);
  ledger.ChargeCompute(0, 2.0);
  ledger.ChargeComm(0, 1.0);
  EXPECT_DOUBLE_EQ(ledger[0].cal_time, 2.0);
  EXPECT_DOUBLE_EQ(ledger[0].comm_time, 1.0);
  EXPECT_DOUBLE_EQ(ledger[0].clock, 3.0);
  EXPECT_DOUBLE_EQ(ledger[0].SystemTime(), 3.0);
  EXPECT_DOUBLE_EQ(ledger[1].clock, 0.0);
}

TEST(Ledger, WaitBooksAsCommunication) {
  TimeLedger ledger(1);
  ledger.ChargeCompute(0, 1.0);
  ledger.WaitUntil(0, 4.0);
  EXPECT_DOUBLE_EQ(ledger[0].comm_time, 3.0);
  EXPECT_DOUBLE_EQ(ledger[0].clock, 4.0);
  // Waiting for a time already passed is a no-op.
  ledger.WaitUntil(0, 2.0);
  EXPECT_DOUBLE_EQ(ledger[0].clock, 4.0);
}

TEST(Ledger, Aggregates) {
  TimeLedger ledger(2);
  ledger.ChargeCompute(0, 4.0);
  ledger.ChargeCompute(1, 2.0);
  ledger.ChargeComm(1, 6.0);
  EXPECT_DOUBLE_EQ(ledger.MeanCalTime(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.MeanCommTime(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.MaxCalTime(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.MaxCommTime(), 6.0);
  EXPECT_DOUBLE_EQ(ledger.MaxClock(), 8.0);
}

TEST(Ledger, Validation) {
  EXPECT_THROW(TimeLedger(0), InvalidArgument);
  TimeLedger ledger(1);
  EXPECT_THROW(ledger.ChargeCompute(0, -1.0), InvalidArgument);
  EXPECT_THROW(ledger.ChargeComm(1, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace psra::engine
