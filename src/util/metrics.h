#ifndef FTMS_UTIL_METRICS_H_
#define FTMS_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ftms {

// Registry of named counters, gauges and histograms shared by the
// scheduler hot path, the rebuild machinery and the benches.
//
// Design constraints (see DESIGN.md "Observability"):
//  * Zero-cost-off: components hold a nullable registry pointer; when it is
//    null every instrumentation site is a single predictable branch and no
//    cell is ever touched. The global registry is off unless FTMS_METRICS=1
//    (or SetGlobalEnabled(true)) — tests use private instances instead.
//  * Allocation-free recording: cells are fixed atomic slots created at
//    registration time; Add/Set never allocate, lock or retry, so they are
//    cheap on the hot path and safe from any thread.
//  * Determinism: every cell is either written from serial points
//    (gauges, histograms sampled at cycle end) or accumulated with
//    commutative relaxed atomic adds (counters), so the exported values are
//    bit-identical from run to run — the Monte-Carlo estimator's included,
//    at any FTMS_THREADS setting. The one exception is
//    HistogramCell::sum() for wall-clock inputs, which is inherently
//    timing-dependent; nothing deterministic is derived from it.
//
// Sample names follow Prometheus conventions: `family{label="v"}`. The
// part before '{' is the family; all samples of one family must share a
// kind. LabeledName() builds such names without hand-quoting.

// Monotonic counter. Relaxed atomic adds: concurrent increments fold
// commutatively, so totals are thread-count invariant.
class Counter {
 public:
  void Add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Last-written-wins scalar. Written from serial points only (cycle end,
// fold points); readers may race benignly with relaxed loads.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

// Fixed-width histogram over [lo, hi), out-of-range values clamped to the
// edge buckets, with atomic cells so it can be shared through the
// registry; every exporter's histogram. Bucket counts are integer sums and
// therefore deterministic; sum() uses floating-point atomic adds and is
// order-dependent when fed concurrently (our recorders feed it serially).
class HistogramCell {
 public:
  HistogramCell(double lo, double hi, int num_buckets);

  void Add(double x);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Approximate q-quantile assuming uniform density inside a bucket;
  // returns lo() when empty.
  double Quantile(double q) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  int64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  // Upper bound of bucket i (the Prometheus `le` edge).
  double bucket_upper(int i) const {
    return lo_ + width_ * static_cast<double>(i + 1);
  }

 private:
  double lo_;
  double hi_;
  double width_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
  std::vector<std::atomic<int64_t>> buckets_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// Builds `family{k1="v1",k2="v2"}` from label pairs (values are not
// escaped; callers pass identifier-like values such as disk indices).
std::string LabeledName(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);
std::string IndexedName(std::string_view family, std::string_view label_key,
                        int index);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry, enabled by FTMS_METRICS=1 in the environment
  // (read once) or programmatically. GlobalIfEnabled() is the form
  // instrumented components use: null means "off", and the component then
  // skips all recording.
  static MetricsRegistry& Global();
  static bool GlobalEnabled();
  static void SetGlobalEnabled(bool enabled);
  static MetricsRegistry* GlobalIfEnabled() {
    return GlobalEnabled() ? &Global() : nullptr;
  }

  // Find-or-create. The returned pointer is stable for the registry's
  // lifetime; resolving it once up front keeps the recording site
  // allocation- and lock-free. Re-registering an existing name with a
  // different kind returns null (and logs nothing — callers treat it as
  // "off").
  Counter* GetCounter(const std::string& name, std::string_view help = "");
  Gauge* GetGauge(const std::string& name, std::string_view help = "");
  HistogramCell* GetHistogram(const std::string& name, double lo, double hi,
                              int num_buckets, std::string_view help = "");

  // Read-only lookups (null when absent or of another kind).
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const HistogramCell* FindHistogram(const std::string& name) const;

  // Number of registered metrics.
  size_t size() const;

  // Prometheus text exposition (one # HELP / # TYPE pair per family,
  // histogram as cumulative _bucket{le=...} + _sum + _count).
  std::string PrometheusText() const;

  // Flat JSON object mapping sample name -> numeric value. Histograms
  // contribute <name>_count, <name>_sum, <name>_p50 and <name>_p99.
  // `indent` is prepended to every entry line and `close_indent` to the
  // closing brace; no trailing newline, so the result embeds cleanly in a
  // larger document.
  std::string JsonObject(const std::string& indent = "  ",
                         const std::string& close_indent = "") const;

  Status WritePrometheusFile(const std::string& path) const;

 private:
  struct Metric {
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramCell> histogram;
  };

  // Ordered by full sample name, which clusters a family's samples
  // together and makes exports reproducible.
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace ftms

#endif  // FTMS_UTIL_METRICS_H_
