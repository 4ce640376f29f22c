#include "parallel/cluster_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace rpdbscan {
namespace {

TEST(LoadImbalanceTest, PerfectBalanceIsOne) {
  EXPECT_DOUBLE_EQ(LoadImbalance({1.0, 1.0, 1.0, 1.0}), 1.0);
}

TEST(LoadImbalanceTest, RatioOfSlowestToFastest) {
  EXPECT_DOUBLE_EQ(LoadImbalance({2.0, 1.0, 8.0}), 8.0);
}

TEST(LoadImbalanceTest, DegenerateInputsReturnOne) {
  EXPECT_DOUBLE_EQ(LoadImbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(LoadImbalance({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(LoadImbalance({0.0, 1.0}), 1.0);  // guard against /0
}

TEST(LoadImbalanceTest, IgnoresNonFiniteAndNegativeTimes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN / Inf / negative entries are timer glitches, not skew: they drop
  // out and the ratio is computed over the remaining finite tasks.
  EXPECT_DOUBLE_EQ(LoadImbalance({nan, 2.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(LoadImbalance({inf, 4.0, 1.0}), 4.0);
  EXPECT_DOUBLE_EQ(LoadImbalance({-3.0, 6.0, 2.0}), 3.0);
  // Result must never be NaN, even for all-bad input.
  EXPECT_DOUBLE_EQ(LoadImbalance({nan, nan}), 1.0);
  EXPECT_DOUBLE_EQ(LoadImbalance({nan, 5.0}), 1.0);  // one finite task
  EXPECT_FALSE(std::isnan(LoadImbalance({nan, inf, -inf})));
}

TEST(MakespanTest, SingleWorkerSumsTasks) {
  EXPECT_DOUBLE_EQ(MakespanForWorkers({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(MakespanTest, EnoughWorkersGivesMaxTask) {
  EXPECT_DOUBLE_EQ(MakespanForWorkers({1.0, 2.0, 3.0}, 3), 3.0);
  EXPECT_DOUBLE_EQ(MakespanForWorkers({1.0, 2.0, 3.0}, 10), 3.0);
}

TEST(MakespanTest, GreedyListScheduling) {
  // Tasks placed in order on the earliest-free worker:
  //   w0: 4        -> 4
  //   w1: 3, 1     -> 4
  // makespan 4 (vs 8 on one worker).
  EXPECT_DOUBLE_EQ(MakespanForWorkers({4.0, 3.0, 1.0}, 2), 4.0);
}

TEST(MakespanTest, ZeroWorkersClampedToOne) {
  EXPECT_DOUBLE_EQ(MakespanForWorkers({2.0, 2.0}, 0), 4.0);
}

TEST(MakespanTest, EmptyTasksIsZero) {
  EXPECT_DOUBLE_EQ(MakespanForWorkers({}, 4), 0.0);
}

TEST(MakespanTest, MoreWorkersNeverSlower) {
  const std::vector<double> tasks = {5, 1, 4, 2, 2, 3, 7, 1, 1, 2};
  double prev = MakespanForWorkers(tasks, 1);
  for (size_t w = 2; w <= 12; ++w) {
    const double m = MakespanForWorkers(tasks, w);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(SpeedupSeriesTest, BaselineIsOne) {
  const std::vector<double> tasks(40, 1.0);
  const auto s = SpeedupSeries(tasks, 5, {5, 10, 20, 40});
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  // Perfectly uniform tasks: doubling workers doubles speed-up.
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_DOUBLE_EQ(s[2], 4.0);
  EXPECT_DOUBLE_EQ(s[3], 8.0);
}

TEST(SpeedupSeriesTest, SkewedTasksSaturate) {
  // One dominant task bounds the speed-up.
  std::vector<double> tasks(16, 0.1);
  tasks[0] = 10.0;
  const auto s = SpeedupSeries(tasks, 1, {16});
  EXPECT_LT(s[0], 1.2);
}

}  // namespace
}  // namespace rpdbscan
