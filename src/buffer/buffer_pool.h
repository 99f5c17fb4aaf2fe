#ifndef FTMS_BUFFER_BUFFER_POOL_H_
#define FTMS_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace ftms {

class TimeSeriesRecorder;

// Track-granularity main-memory accounting. The cycle-based schedulers
// hold every track read from disk in memory until it has been transmitted
// (plus parity/partial-XOR state in degraded mode); this pool enforces the
// configured memory budget and records the high-water mark, which is the
// quantity Tables 2/3 report as "Buffers (in tracks)".
class BufferPool {
 public:
  // `capacity_tracks` <= 0 means unlimited (used when we only want to
  // *measure* occupancy rather than enforce a budget).
  explicit BufferPool(int64_t capacity_tracks = 0)
      : capacity_(capacity_tracks) {}

  // Reserves `tracks` buffers; fails with RESOURCE_EXHAUSTED when a finite
  // capacity would be exceeded (nothing is reserved in that case).
  Status Acquire(int64_t tracks);

  // Returns `tracks` buffers to the pool.
  void Release(int64_t tracks);

  int64_t in_use() const { return in_use_; }
  int64_t capacity() const { return capacity_; }
  bool unlimited() const { return capacity_ <= 0; }
  int64_t peak_in_use() const { return peak_; }
  int64_t failed_acquires() const { return failed_acquires_; }

  void ResetPeak() { peak_ = in_use_; }

  // Observability: mirrors occupancy / peak into the given gauges and
  // failed acquires into the counter on every state change. Null
  // arguments are allowed; unbinding is passing all nulls.
  void BindInstruments(Gauge* in_use, Gauge* peak, Counter* failed);

  // Time-series hook: records occupancy as `series_name` into `recorder`.
  // The owning scheduler calls SampleTimeSeries at the end of each cycle.
  void BindTimeSeries(TimeSeriesRecorder* recorder,
                      const std::string& series_name);
  void SampleTimeSeries(int64_t t_us) const;

 private:
  void PublishOccupancy() {
    if (in_use_gauge_ != nullptr) {
      in_use_gauge_->Set(static_cast<double>(in_use_));
    }
    if (peak_gauge_ != nullptr) peak_gauge_->Set(static_cast<double>(peak_));
  }

  int64_t capacity_;
  int64_t in_use_ = 0;
  int64_t peak_ = 0;
  int64_t failed_acquires_ = 0;
  Gauge* in_use_gauge_ = nullptr;
  Gauge* peak_gauge_ = nullptr;
  Counter* failed_counter_ = nullptr;
  TimeSeriesRecorder* ts_ = nullptr;
  int ts_in_use_ = -1;
};

// The shared pool of "buffer servers" of Section 3: extra processors with
// memory that adopt clusters operating in degraded mode. A cluster in
// degraded mode needs staggered-group-level buffering; rather than give
// every cluster that memory, K servers are shared system-wide, and
// degradation of service occurs when the (K+1)-st cluster fails while all
// servers are busy.
class BufferServerPool {
 public:
  // `num_servers` = K_NC; `tracks_per_server` is each server's memory.
  BufferServerPool(int num_servers, int64_t tracks_per_server);

  // Attaches a buffer server to `cluster`. Fails with RESOURCE_EXHAUSTED
  // when all K servers are busy (degradation of service) and with
  // ALREADY_EXISTS if the cluster already holds one.
  Status AttachToCluster(int cluster);

  // Detaches the server from `cluster` (after its disk was repaired).
  Status DetachFromCluster(int cluster);

  bool IsAttached(int cluster) const;
  int num_servers() const { return num_servers_; }
  int servers_in_use() const { return static_cast<int>(attached_.size()); }
  int64_t tracks_per_server() const { return tracks_per_server_; }
  int64_t exhausted_count() const { return exhausted_; }

 private:
  int num_servers_;
  int64_t tracks_per_server_;
  std::vector<int> attached_;  // clusters currently holding a server
  int64_t exhausted_ = 0;
};

}  // namespace ftms

#endif  // FTMS_BUFFER_BUFFER_POOL_H_
