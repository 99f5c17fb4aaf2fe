#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <vector>

namespace ftms {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  ThreadPool pool_neg(-3);
  EXPECT_EQ(pool_neg.size(), 1);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  // Declared before the pool so they outlive its workers, and notified
  // under `mu` so the wake-up cannot slip between the waiter's predicate
  // check and its sleep.
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(4);
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return counter.load() == kTasks; });
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is empty
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10000;
  std::vector<int> hits(kN, 0);
  ParallelFor(&pool, 0, kN, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), kN);
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  ParallelFor(&pool, 5, 5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  ParallelFor(&pool, 7, 8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 7);
  // More threads than elements: every index still covered once.
  std::vector<int> hits(3, 0);
  ParallelFor(&pool, 0, 3, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(100, 0);
  ParallelFor(nullptr, 0, 100, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  EXPECT_GE(ThreadPool::Shared().size(), 1);
}

}  // namespace
}  // namespace ftms
