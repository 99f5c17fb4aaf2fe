#include "disk/disk.h"

#include <gtest/gtest.h>

#include "disk/disk_array.h"
#include "disk/disk_model.h"
#include "layout/layout.h"

namespace ftms {
namespace {

TEST(DiskModelTest, Table1DefaultsAreValid) {
  DiskParameters p;
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_DOUBLE_EQ(p.seek_time_s, 0.025);
  EXPECT_DOUBLE_EQ(p.track_time_s, 0.020);
  EXPECT_DOUBLE_EQ(p.track_mb, 0.050);
}

TEST(DiskModelTest, ReadTimeIsLinear) {
  // T(r) = T_seek + r * T_trk (Section 2).
  DiskParameters p;
  EXPECT_DOUBLE_EQ(p.ReadTime(0), 0.025);
  EXPECT_DOUBLE_EQ(p.ReadTime(1), 0.045);
  EXPECT_DOUBLE_EQ(p.ReadTime(10), 0.225);
}

TEST(DiskModelTest, TracksPerCycleInvertsReadTime) {
  DiskParameters p;
  // NC cycle with Table 1 parameters: B/b_o = 0.05/0.1875 s = 0.2667 s.
  const double cycle = 0.05 / 0.1875;
  const int slots = p.TracksPerCycle(cycle);
  EXPECT_EQ(slots, 12);
  EXPECT_LE(p.ReadTime(slots), cycle);
  EXPECT_GT(p.ReadTime(slots + 1), cycle);
}

TEST(DiskModelTest, TracksPerCycleZeroWhenSeekDominates) {
  DiskParameters p;
  EXPECT_EQ(p.TracksPerCycle(0.01), 0);
}

TEST(DiskModelTest, BandwidthMatchesPaperFootnote) {
  // ~32 mbps disk = ~2.5 MB/s sustained (footnote 2).
  DiskParameters p;
  EXPECT_NEAR(p.BandwidthMbS(), 2.5, 1e-9);
}

TEST(DiskModelTest, ValidationRejectsNonsense) {
  DiskParameters p;
  p.track_time_s = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParameters();
  p.capacity_mb = 0.01;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParameters();
  p.mttr_hours = -1;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(DiskTest, FailAndRepairLifecycle) {
  Disk d(3);
  EXPECT_TRUE(d.operational());
  EXPECT_TRUE(d.Read(2));
  EXPECT_EQ(d.tracks_read(), 2);

  d.Fail();
  EXPECT_FALSE(d.operational());
  EXPECT_FALSE(d.Read(1));
  EXPECT_EQ(d.failed_reads(), 1);
  EXPECT_EQ(d.times_failed(), 1);
  d.Fail();  // idempotent
  EXPECT_EQ(d.times_failed(), 1);

  d.Repair();
  EXPECT_TRUE(d.operational());
  EXPECT_TRUE(d.Read(1));
  EXPECT_EQ(d.tracks_read(), 3);
}

TEST(DiskArrayTest, CreateValidatesDivisibility) {
  DiskParameters p;
  EXPECT_TRUE(DiskArray::Create(100, 5, p).ok());
  EXPECT_FALSE(DiskArray::Create(101, 5, p).ok());
  EXPECT_FALSE(DiskArray::Create(0, 5, p).ok());
  EXPECT_FALSE(DiskArray::Create(10, 0, p).ok());
}

TEST(DiskArrayTest, ClusterGeometry) {
  DiskParameters p;
  DiskArray array = std::move(DiskArray::Create(20, 5, p).value());
  EXPECT_EQ(array.num_clusters(), 4);
  EXPECT_EQ(array.ClusterOf(0), 0);
  EXPECT_EQ(array.ClusterOf(7), 1);
  EXPECT_EQ(array.IndexInCluster(7), 2);
  EXPECT_EQ(array.DiskId(1, 2), 7);
}

TEST(DiskArrayTest, FailureAccounting) {
  DiskParameters p;
  DiskArray array = std::move(DiskArray::Create(20, 5, p).value());
  const auto layout = CreateLayout(Scheme::kStreamingRaid, 20, 5).value();
  EXPECT_EQ(array.NumFailed(), 0);
  EXPECT_TRUE(array.FailDisk(3).ok());
  EXPECT_TRUE(array.FailDisk(11).ok());
  EXPECT_EQ(array.NumFailed(), 2);
  EXPECT_EQ(array.NumFailedInCluster(0), 1);
  EXPECT_EQ(array.NumFailedInCluster(2), 1);
  EXPECT_FALSE(layout->LosesGroup(array.FailedPerCluster()));
  EXPECT_EQ(array.FailedDisks(), (std::vector<int>{3, 11}));

  // Second failure in cluster 0: catastrophic for clustered schemes.
  EXPECT_TRUE(array.FailDisk(4).ok());
  EXPECT_TRUE(layout->LosesGroup(array.FailedPerCluster()));

  EXPECT_TRUE(array.RepairDisk(4).ok());
  EXPECT_FALSE(layout->LosesGroup(array.FailedPerCluster()));
  EXPECT_FALSE(array.FailDisk(99).ok());
  EXPECT_FALSE(array.RepairDisk(-1).ok());
}

}  // namespace
}  // namespace ftms
