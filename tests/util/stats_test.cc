#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vq {
namespace {

TEST(StatsTest, MeanAndVariance) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(Stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.5), 10.0);  // clamped
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, zs), -1.0, 1e-12);
  std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, flat), 0.0);
}

TEST(StatsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(NormalCdf(10.0), 1.0, 1e-12);
}

TEST(StatsTest, NormalCdfParameterized) {
  EXPECT_NEAR(NormalCdf(5.0, 5.0, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(7.0, 5.0, 2.0), NormalCdf(1.0), 1e-12);
  // Degenerate sigma: step function.
  EXPECT_DOUBLE_EQ(NormalCdf(4.9, 5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalCdf(5.1, 5.0, 0.0), 1.0);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  std::vector<double> xs = {1.5, -2.0, 7.25, 0.0, 3.5, 3.5};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.25);
}

TEST(StatsTest, RunningStatsEmpty) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

}  // namespace
}  // namespace vq
