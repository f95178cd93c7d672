// Statistics helpers used by the benchmark harness: median, percentiles,
// and the non-parametric confidence interval of the median that the paper
// reports ("non-parametric 95%/99% CIs").
#pragma once

#include <cstddef>
#include <vector>

namespace rfs {

/// Non-parametric confidence interval of the median: order-statistic
/// indices derived from the binomial distribution.
struct MedianCi {
  double median = 0.0;
  double low = 0.0;
  double high = 0.0;
};

/// Summary statistics of one sample set.
class Summary {
 public:
  /// Builds a summary; the input is copied and sorted internally.
  explicit Summary(std::vector<double> samples);

  [[nodiscard]] std::size_t count() const { return sorted_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double median() const;

  /// Linear-interpolated percentile, `p` in [0, 100].
  [[nodiscard]] double percentile(double p) const;

  /// Non-parametric CI of the median at the given confidence (e.g. 0.95).
  /// Falls back to [min, max] for tiny samples.
  [[nodiscard]] MedianCi median_ci(double confidence) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Streaming mean/variance accumulator (Welford).
class OnlineStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rfs
