// Descriptive statistics and distribution functions used across the library.
#ifndef VQ_UTIL_STATS_H_
#define VQ_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace vq {

/// Arithmetic mean; 0.0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance (n-1 denominator); 0.0 for n < 2.
double Variance(const std::vector<double>& xs);

/// Sample standard deviation.
double Stddev(const std::vector<double>& xs);

/// Median (average of middle two for even n); 0.0 for an empty input.
/// Copies and partially sorts the input.
double Median(std::vector<double> xs);

/// Linear-interpolated quantile, q in [0, 1]; 0.0 for an empty input.
double Quantile(std::vector<double> xs, double q);

/// Pearson correlation; 0.0 if either side has zero variance.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

/// Standard normal cumulative distribution function Phi(z).
double NormalCdf(double z);

/// Normal CDF with the given mean and standard deviation.
double NormalCdf(double x, double mean, double stddev);

/// \brief Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0.0 for count < 2.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vq

#endif  // VQ_UTIL_STATS_H_
