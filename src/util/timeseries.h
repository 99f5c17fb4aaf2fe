#ifndef FTMS_UTIL_TIMESERIES_H_
#define FTMS_UTIL_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace ftms {

class Counter;
class Gauge;

// Records named time series over SIMULATED time so temporal behaviour —
// degraded-read load, queue depth, rebuild progress, SLO burn — becomes a
// plottable curve instead of an end-of-run scalar.
//
// Two feeding models share the same storage:
//  * push: a component defines a series once (DefineSeries) and appends
//    (t, v) points from its serial sync point (cycle end, fold point);
//  * pull: AddCounterSeries / AddGaugeSeries register registry cells that
//    Sample(t) reads, optionally as a derived per-second rate.
//
// Every series is a fixed-capacity ring with on-the-fly 2x downsampling:
// when a ring fills, every other point is dropped and the series' stride
// doubles, so a run of any length keeps a uniform-cadence curve in
// bounded memory. Appends and samples happen at cycle ends and other
// deterministic sync points only — that is what keeps dumps
// byte-identical from run to run.
//
// Zero-cost-off follows the metrics registry's pattern: components hold a
// nullable TimeSeriesRecorder*; Global() is only handed out when
// FTMS_TIMESERIES=1 (or SetGlobalEnabled(true)). Knobs:
//   FTMS_TIMESERIES=1            enable the global recorder
//   FTMS_TIMESERIES_OUT=path     write the JSON dump (exporters/CLI)
//   FTMS_TIMESERIES_CSV=path     write the CSV dump
//   FTMS_TIMESERIES_CAPACITY=N   per-series ring capacity (default 512)
//   FTMS_TIMESERIES_INTERVAL_US=N  minimum simulated-us between pull
//                                  samples (default 0 = every Sample())
class TimeSeriesRecorder {
 public:
  struct Point {
    int64_t t_us = 0;  // simulated time, microseconds
    double v = 0;
  };

  // `capacity` 0 uses FTMS_TIMESERIES_CAPACITY (default 512);
  // `interval_us` < 0 uses FTMS_TIMESERIES_INTERVAL_US (default 0).
  explicit TimeSeriesRecorder(size_t capacity = 0,
                              int64_t interval_us = -1);

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  static TimeSeriesRecorder& Global();
  static bool GlobalEnabled();
  static void SetGlobalEnabled(bool enabled);
  static TimeSeriesRecorder* GlobalIfEnabled() {
    return GlobalEnabled() ? &Global() : nullptr;
  }

  // Defines (or finds) a push-model series and returns its id. Call from
  // serial code (component init); ids are stable for the recorder's life.
  int DefineSeries(const std::string& name);

  // Appends one point to a push-model series. Serial sync points only;
  // t_us must be monotone non-decreasing per series (equal-t appends are
  // kept — callers sample once per cycle, so ties do not occur in
  // practice).
  void Append(int id, int64_t t_us, double v);

  // Registers a pull-model source read by Sample(). With `as_rate`, the
  // series records the counter's per-second delta rate between samples
  // (first sample records 0).
  void AddCounterSeries(const std::string& name, const Counter* counter,
                        bool as_rate = false);
  void AddGaugeSeries(const std::string& name, const Gauge* gauge);

  // Samples every pull-model source at simulated time t_us; gated so a
  // recorder shared by several components samples at most once per
  // distinct time and at most once per configured interval. Serial sync
  // points only.
  void Sample(int64_t t_us);

  size_t num_series() const;
  size_t capacity() const { return capacity_; }
  // Points currently held by `name` (empty when unknown).
  std::vector<Point> SeriesPoints(const std::string& name) const;
  // Current keep-stride of `name` (1 until the first decimation, then
  // doubling); 0 when unknown.
  int64_t SeriesStride(const std::string& name) const;

  // JSON dump: {"schema": 1, "series": {name: {"stride": s,
  // "t": [...], "v": [...]}}} with series sorted by name — the dump is
  // byte-identical from run to run.
  std::string ToJson() const;
  // Long-format CSV: series,t_us,value rows, series sorted by name.
  std::string ToCsv() const;
  // Compact per-series summary for embedding in bench JSON:
  // {"series_count": n, "points_total": m, "series": {name:
  // {"points": p, "t_first": a, "t_last": b, "v_last": v}}}.
  std::string SummaryJson(const std::string& indent,
                          const std::string& close_indent) const;

  Status WriteJson(const std::string& path) const;
  Status WriteCsv(const std::string& path) const;

  // Drops all series and pull sources (tests / fresh runs on the global).
  void Clear();

 private:
  struct Series {
    std::string name;
    std::vector<Point> pts;
    int64_t stride = 1;  // keep every stride-th appended point
    int64_t skip = 0;    // points to drop before the next keep
    // Pull-model source (at most one of counter/gauge set).
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    bool as_rate = false;
    int64_t last_value = 0;  // counter reading at the previous sample
  };

  int DefineSeriesLocked(const std::string& name);
  void AppendLocked(Series& s, int64_t t_us, double v);

  const size_t capacity_;
  const int64_t interval_us_;
  // Guards the series table; all writers are serial sync points, the
  // mutex is defensive (exports racing a late Append stay well-formed).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Series>> series_;
  int64_t last_sample_t_ = INT64_MIN;
};

}  // namespace ftms

#endif  // FTMS_UTIL_TIMESERIES_H_
