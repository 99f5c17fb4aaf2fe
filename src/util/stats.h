#ifndef FTMS_UTIL_STATS_H_
#define FTMS_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <string>

namespace ftms {

// Single-pass (Welford) accumulator for mean / variance / extrema.
// Used by the reliability Monte-Carlo and the scheduler metrics.
class StreamingStats {
 public:
  void Add(double x);
  void Merge(const StreamingStats& other);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  // Half-width of the ~95% confidence interval on the mean (normal
  // approximation, 1.96 * stderr). 0 for fewer than 2 samples.
  double ConfidenceHalfWidth95() const;

  std::string ToString() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ftms

#endif  // FTMS_UTIL_STATS_H_
