#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace vq {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size() - 1);
}

double Stddev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  double mx = Mean(xs);
  double my = Mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    double dx = xs[i] - mx;
    double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double NormalCdf(double x, double mean, double stddev) {
  if (stddev <= 0.0) return x >= mean ? 1.0 : 0.0;
  return NormalCdf((x - mean) / stddev);
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace vq
