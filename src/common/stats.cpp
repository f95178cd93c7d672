#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rfs {

Summary::Summary(std::vector<double> samples) : sorted_(std::move(samples)) {
  if (sorted_.empty()) throw std::invalid_argument("Summary: empty sample set");
  std::sort(sorted_.begin(), sorted_.end());
  double mean = 0.0, m2 = 0.0;
  std::size_t n = 0;
  for (double x : sorted_) {
    ++n;
    double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  mean_ = mean;
  m2_ = m2;
}

double Summary::mean() const { return mean_; }

double Summary::stddev() const {
  if (sorted_.size() < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(sorted_.size() - 1));
}

double Summary::median() const { return percentile(50.0); }

double Summary::percentile(double p) const {
  if (p <= 0.0) return sorted_.front();
  if (p >= 100.0) return sorted_.back();
  double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

MedianCi Summary::median_ci(double confidence) const {
  MedianCi ci;
  ci.median = median();
  const auto n = sorted_.size();
  if (n < 6) {
    ci.low = sorted_.front();
    ci.high = sorted_.back();
    return ci;
  }
  // Normal approximation to the binomial order-statistic interval:
  // ranks n/2 +- z*sqrt(n)/2 bound the median at the requested confidence.
  double alpha = 1.0 - confidence;
  // Inverse normal CDF at 1 - alpha/2 via Acklam-style rational approximation
  // is overkill; the two confidences used in the paper are tabulated.
  double z;
  if (confidence >= 0.99) {
    z = 2.5758;
  } else if (confidence >= 0.95) {
    z = 1.9600;
  } else if (confidence >= 0.90) {
    z = 1.6449;
  } else {
    z = 1.0;  // ~68%
  }
  (void)alpha;
  double half = z * std::sqrt(static_cast<double>(n)) / 2.0;
  double mid = static_cast<double>(n) / 2.0;
  auto lo_rank = static_cast<std::ptrdiff_t>(std::floor(mid - half));
  auto hi_rank = static_cast<std::ptrdiff_t>(std::ceil(mid + half));
  lo_rank = std::max<std::ptrdiff_t>(lo_rank, 0);
  hi_rank = std::min<std::ptrdiff_t>(hi_rank, static_cast<std::ptrdiff_t>(n) - 1);
  ci.low = sorted_[static_cast<std::size_t>(lo_rank)];
  ci.high = sorted_[static_cast<std::size_t>(hi_rank)];
  return ci;
}

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace rfs
