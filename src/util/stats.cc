#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ftms {

void StreamingStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::Reset() { *this = StreamingStats(); }

double StreamingStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::ConfidenceHalfWidth95() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

std::string StreamingStats::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
     << " min=" << min() << " max=" << max();
  return os.str();
}

}  // namespace ftms
