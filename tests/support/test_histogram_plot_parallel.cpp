#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/assert.h"
#include "src/support/histogram.h"
#include "src/support/thread_pool.h"

namespace opindyn {
namespace {

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) {
    h.add(i + 0.5);
  }
  h.add(-1.0);
  h.add(42.0);
  EXPECT_EQ(h.total(), 12);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(h.count(b), 1);
    EXPECT_DOUBLE_EQ(h.bin_low(b), static_cast<double>(b));
    EXPECT_DOUBLE_EQ(h.bin_high(b), static_cast<double>(b) + 1.0);
  }
}

// The NaN-guard contract (see histogram.h): NaN never reaches the bin
// cast (which is UB), lands in the dedicated nan_count() cell, and
// leaves total(), the bins, and the quantile mass untouched.
// +-infinity is an ordinary out-of-range sample and saturates.
TEST(Histogram, NanIsRoutedPastTheBinsAndInfinitySaturates) {
  Histogram h(0.0, 10.0, 5);
  h.add(2.5);
  h.add(7.5);
  const double median_before = h.quantile(0.5);

  h.add(std::nan(""));
  h.add(-std::nan(""));
  EXPECT_EQ(h.nan_count(), 2);
  EXPECT_EQ(h.total(), 2);  // NaN is outside the positional mass
  EXPECT_EQ(h.underflow(), 0);
  EXPECT_EQ(h.overflow(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), median_before);

  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.total(), 4);

  // The render footer reports the NaN cell so it cannot hide.
  EXPECT_NE(h.render(10).find("nan: 2"), std::string::npos);
}

TEST(Histogram, QuantileApproximatesMedian) {
  Histogram h(0.0, 1.0, 100);
  for (int i = 0; i < 10000; ++i) {
    h.add((i % 100) / 100.0);
  }
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
}

// The quantile contract for saturated mass (see histogram.h): ranks are
// taken against the FULL count including under/overflow, quantiles
// inside the saturated mass clamp to the matching range edge, and
// out-of-range samples shift the in-range quantiles -- never "quantiles
// over in-range bins only".
TEST(Histogram, QuantileAccountsForSaturatedUnderAndOverflow) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 3; ++i) {
    h.add(-5.0);  // underflow mass
  }
  h.add(0.25);  // one in-range sample
  for (int i = 0; i < 3; ++i) {
    h.add(7.0);  // overflow mass
  }
  EXPECT_EQ(h.total(), 7);
  EXPECT_EQ(h.underflow(), 3);
  EXPECT_EQ(h.overflow(), 3);
  // Ranks 0..2 (q < 3/7) fall in the underflow: clamp to lo.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.3), 0.0);
  // Rank 3 (the median) is the in-range sample: its bin midpoint.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.25);
  // Ranks 4..6 fall in the overflow: clamp to hi.
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, QuantileShiftsWhenMassSaturates) {
  // 50 in-range samples around 0.05, then 50 overflow samples: the
  // median must move to the overflow edge, not stay at the in-range
  // median as a bins-only computation would report.
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 50; ++i) {
    h.add(0.05);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.05);
  for (int i = 0; i < 50; ++i) {
    h.add(9.0);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.05);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.0);  // saturated: clamp to hi
}

TEST(Histogram, QuantileOfEmptyHistogramIsLo) {
  const Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), ContractError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractError);
}

TEST(Histogram, RenderShowsBars) {
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 10; ++i) {
    h.add(0.5);
  }
  h.add(1.5);
  const std::string render = h.render(20);
  EXPECT_NE(render.find("####"), std::string::npos);
  EXPECT_NE(render.find("10"), std::string::npos);
}

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.wait();
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ZeroThreadsMeansDefaultParallelism) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), default_parallelism());
}

TEST(ThreadPool, TaskExceptionReachesItsFutureOnly) {
  ThreadPool pool(2);
  std::future<void> failing =
      pool.submit([] { throw std::runtime_error("boom"); });
  std::future<void> passing = pool.submit([] {});
  EXPECT_THROW(failing.get(), std::runtime_error);
  EXPECT_NO_THROW(passing.get());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::int64_t sum = 0;
  {
    ThreadPool pool(1);
    for (std::int64_t i = 0; i < 10; ++i) {
      pool.submit([&sum, i] { sum += i; });
    }
  }
  EXPECT_EQ(sum, 45);
}

TEST(DefaultParallelism, IsAtLeastOne) {
  EXPECT_GE(default_parallelism(), 1u);
}

}  // namespace
}  // namespace opindyn
