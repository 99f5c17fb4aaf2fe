#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>

#include "util/log.h"
#include "util/metrics.h"
#include "util/parse.h"

namespace ftms {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::BindInstruments(Counter* submitted, Counter* executed,
                                 Gauge* queue_depth) {
  submitted_counter_ = submitted;
  executed_counter_ = executed;
  queue_depth_gauge_ = queue_depth;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  if (submitted_counter_ != nullptr) submitted_counter_->Add(1);
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      }
    }
    task();
    if (executed_counter_ != nullptr) executed_counter_->Add(1);
  }
}

int ThreadPool::DefaultThreadCount() {
  // Resolved once, so a malformed value warns once.
  static const int count = [] {
    const char* env = std::getenv("FTMS_THREADS");
    if (env != nullptr && env[0] != '\0') {
      if (const std::optional<int64_t> n =
              ParseDecimal(env, 1, std::numeric_limits<int>::max())) {
        return static_cast<int>(*n);
      }
      FTMS_LOG(Warning) << "FTMS_THREADS must be a positive whole number, "
                           "got '"
                        << env << "'; using the hardware concurrency";
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return count;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(DefaultThreadCount());
    if (MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled()) {
      p->BindInstruments(
          registry->GetCounter("ftms_threadpool_tasks_submitted_total",
                               "Tasks enqueued on the shared worker pool"),
          registry->GetCounter("ftms_threadpool_tasks_executed_total",
                               "Tasks the shared worker pool finished"),
          registry->GetGauge("ftms_threadpool_queue_depth",
                             "Tasks currently waiting for a worker"));
    }
    return p;
  }();
  return *pool;
}

void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return;
  const int64_t count = end - begin;
  if (pool == nullptr || pool->size() <= 1 || count <= 1) {
    body(begin, end);
    return;
  }
  // Ceiling division over at most pool->size() chunks. The number of
  // non-empty chunks can be smaller than the pool (9 elements on 8
  // workers -> 5 chunks of <= 2).
  const int64_t target = std::min<int64_t>(pool->size(), count);
  const int64_t per_chunk = (count + target - 1) / target;

  std::mutex mu;
  std::condition_variable done_cv;
  int64_t remaining = (count + per_chunk - 1) / per_chunk;
  for (int64_t lo = begin; lo < end; lo += per_chunk) {
    const int64_t hi = std::min(lo + per_chunk, end);
    pool->Submit([&, lo, hi] {
      body(lo, hi);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace ftms
