#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "util/timeseries.h"

namespace ftms {

Status BufferPool::Acquire(int64_t tracks) {
  assert(tracks >= 0);
  if (!unlimited() && in_use_ + tracks > capacity_) {
    ++failed_acquires_;
    if (failed_counter_ != nullptr) failed_counter_->Add(1);
    return Status::ResourceExhausted(
        "buffer pool full: want " + std::to_string(tracks) + ", free " +
        std::to_string(capacity_ - in_use_));
  }
  in_use_ += tracks;
  peak_ = std::max(peak_, in_use_);
  PublishOccupancy();
  return Status::Ok();
}

void BufferPool::Release(int64_t tracks) {
  assert(tracks >= 0);
  assert(tracks <= in_use_);
  in_use_ -= tracks;
  PublishOccupancy();
}

void BufferPool::BindInstruments(Gauge* in_use, Gauge* peak,
                                 Counter* failed) {
  in_use_gauge_ = in_use;
  peak_gauge_ = peak;
  failed_counter_ = failed;
  PublishOccupancy();
}

void BufferPool::BindTimeSeries(TimeSeriesRecorder* recorder,
                                const std::string& series_name) {
  ts_ = recorder;
  ts_in_use_ = recorder != nullptr ? recorder->DefineSeries(series_name) : -1;
}

void BufferPool::SampleTimeSeries(int64_t t_us) const {
  if (ts_ != nullptr) {
    ts_->Append(ts_in_use_, t_us, static_cast<double>(in_use_));
  }
}

BufferServerPool::BufferServerPool(int num_servers,
                                   int64_t tracks_per_server)
    : num_servers_(num_servers), tracks_per_server_(tracks_per_server) {}

Status BufferServerPool::AttachToCluster(int cluster) {
  if (IsAttached(cluster)) {
    return Status::AlreadyExists("cluster already holds a buffer server");
  }
  if (servers_in_use() >= num_servers_) {
    ++exhausted_;
    return Status::ResourceExhausted(
        "all " + std::to_string(num_servers_) + " buffer servers busy");
  }
  attached_.push_back(cluster);
  return Status::Ok();
}

Status BufferServerPool::DetachFromCluster(int cluster) {
  auto it = std::find(attached_.begin(), attached_.end(), cluster);
  if (it == attached_.end()) {
    return Status::NotFound("cluster holds no buffer server");
  }
  attached_.erase(it);
  return Status::Ok();
}

bool BufferServerPool::IsAttached(int cluster) const {
  return std::find(attached_.begin(), attached_.end(), cluster) !=
         attached_.end();
}

}  // namespace ftms
