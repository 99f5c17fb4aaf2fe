#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

namespace ftms {
namespace {

TEST(BufferPoolTest, UnlimitedPoolMeasuresPeak) {
  BufferPool pool(0);
  EXPECT_TRUE(pool.unlimited());
  EXPECT_TRUE(pool.Acquire(100).ok());
  EXPECT_TRUE(pool.Acquire(50).ok());
  pool.Release(120);
  EXPECT_EQ(pool.in_use(), 30);
  EXPECT_EQ(pool.peak_in_use(), 150);
}

TEST(BufferPoolTest, BoundedPoolRejectsOverflow) {
  BufferPool pool(10);
  EXPECT_TRUE(pool.Acquire(7).ok());
  EXPECT_EQ(pool.Acquire(4).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.in_use(), 7);  // failed acquire reserves nothing
  EXPECT_EQ(pool.failed_acquires(), 1);
  EXPECT_TRUE(pool.Acquire(3).ok());
  pool.Release(10);
  EXPECT_EQ(pool.in_use(), 0);
}

TEST(BufferPoolTest, ResetPeak) {
  BufferPool pool(0);
  pool.Acquire(100).ok();
  pool.Release(100);
  pool.ResetPeak();
  EXPECT_EQ(pool.peak_in_use(), 0);
}

TEST(BufferServerPoolTest, ServesUpToKClusters) {
  // Section 3: K shared buffer servers; the (K+1)-st failed cluster finds
  // the pool empty -> degradation of service.
  BufferServerPool servers(2, 100);
  EXPECT_TRUE(servers.AttachToCluster(3).ok());
  EXPECT_TRUE(servers.AttachToCluster(7).ok());
  EXPECT_TRUE(servers.IsAttached(3));
  EXPECT_EQ(servers.servers_in_use(), 2);
  EXPECT_EQ(servers.AttachToCluster(9).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(servers.exhausted_count(), 1);

  // A repaired cluster releases its server for the waiting one.
  EXPECT_TRUE(servers.DetachFromCluster(3).ok());
  EXPECT_FALSE(servers.IsAttached(3));
  EXPECT_TRUE(servers.AttachToCluster(9).ok());
}

TEST(BufferServerPoolTest, DoubleAttachRejected) {
  BufferServerPool servers(2, 100);
  EXPECT_TRUE(servers.AttachToCluster(1).ok());
  EXPECT_EQ(servers.AttachToCluster(1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(servers.DetachFromCluster(5).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ftms
