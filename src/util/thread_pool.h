#ifndef FTMS_UTIL_THREAD_POOL_H_
#define FTMS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftms {

// Fixed-size thread pool for the embarrassingly-parallel parts of the
// simulation stack (Monte-Carlo trials, multi-config bench sweeps).
//
// Deliberately simple: one shared FIFO queue, no work stealing, no task
// futures. Parallel work is expressed through ParallelFor below, which
// partitions an index range into contiguous chunks — together with
// per-trial RNG streams this keeps every parallel computation bit-identical
// at any thread count, including 1.
class ThreadPool {
 public:
  // Spawns `num_threads` workers; values < 1 are clamped to 1. A pool of
  // size 1 still runs submitted work on its single worker thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  // Enqueues `task` for execution on some worker thread.
  void Submit(std::function<void()> task);

  // Optional observability sinks; any pointer may be null (that series is
  // simply not published). `submitted`/`executed` count tasks; `queue_depth`
  // tracks the instantaneous FIFO backlog. Call before the pool is shared
  // across threads (Shared() binds its own pool when the global registry is
  // enabled). Pointers must outlive the pool.
  void BindInstruments(class Counter* submitted, class Counter* executed,
                       class Gauge* queue_depth);

  // Thread count used by Shared() and by components configured with
  // "0 = default": the FTMS_THREADS environment variable when set to a
  // positive whole number, else std::thread::hardware_concurrency() (a
  // malformed value warns). Read once per process.
  static int DefaultThreadCount();

  // Lazily-constructed process-wide pool of DefaultThreadCount() workers.
  // Never destroyed (intentionally leaked) so it is safe to use from
  // static destructors and exit paths.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;

  // Observability (null = off).
  class Counter* submitted_counter_ = nullptr;
  class Counter* executed_counter_ = nullptr;
  class Gauge* queue_depth_gauge_ = nullptr;
};

// Splits [begin, end) into at most pool->size() contiguous chunks and
// runs `body(chunk_begin, chunk_end)` for each on the pool, blocking until
// every chunk is done. The chunk boundaries depend only on the range and
// the pool size, never on scheduling order, so results the body writes by
// index are bit-identical at any thread count. Runs inline as one chunk
// (no pool hop) with a null or one-worker pool or a range of at most one
// element; an empty range never calls the body.
void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body);

}  // namespace ftms

#endif  // FTMS_UTIL_THREAD_POOL_H_
