#include "sched/streaming_raid_scheduler.h"

#include <gtest/gtest.h>

#include "tests/sched_test_util.h"

namespace ftms {
namespace {

constexpr int kC = 5;
constexpr int kDisks = 10;  // two clusters, as in Figure 3

TEST(StreamingRaidTest, DeliversWholeObjectWithoutFailures) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 16)).value();
  rig.sched->RunCycles(6);  // 1 startup read + 4 delivery cycles + slack
  const Stream* s = rig.sched->FindStream(id);
  EXPECT_EQ(s->state(), StreamState::kCompleted);
  EXPECT_EQ(s->delivered_tracks(), 16);
  EXPECT_EQ(s->hiccup_count(), 0);
}

TEST(StreamingRaidTest, StartupLatencyIsOneCycle) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 16)).value();
  rig.sched->RunCycle();  // read cycle, nothing delivered yet
  EXPECT_EQ(rig.sched->FindStream(id)->delivered_tracks(), 0);
  rig.sched->RunCycle();  // first group delivered
  EXPECT_EQ(rig.sched->FindStream(id)->delivered_tracks(), kC - 1);
}

TEST(StreamingRaidTest, ParityIsReadEveryCycle) {
  // Bandwidth is sacrificed in normal mode: one parity read per stream
  // per cycle (the 1/C overhead of equation (2)).
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  rig.sched->AddStream(TestObject(0, 16)).value();
  rig.sched->RunCycles(4);
  EXPECT_EQ(rig.sched->metrics().parity_reads, 4);
  EXPECT_EQ(rig.sched->metrics().data_reads, 16);
}

TEST(StreamingRaidTest, SingleDataDiskFailureIsMasked) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 32)).value();
  rig.sched->RunCycles(2);
  rig.sched->OnDiskFailed(1, /*mid_cycle=*/false);
  rig.sched->RunCycles(10);
  const Stream* s = rig.sched->FindStream(id);
  EXPECT_EQ(s->state(), StreamState::kCompleted);
  EXPECT_EQ(s->hiccup_count(), 0);
  EXPECT_GT(rig.sched->metrics().reconstructed, 0);
}

TEST(StreamingRaidTest, MidCycleFailureAlsoMasked) {
  // The parity block is read concurrently with the data, so even a
  // failure inside the sweep is reconstructed (Section 2).
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 32)).value();
  rig.sched->RunCycles(2);
  rig.sched->OnDiskFailed(2, /*mid_cycle=*/true);
  rig.sched->RunCycles(10);
  EXPECT_EQ(rig.sched->FindStream(id)->hiccup_count(), 0);
}

TEST(StreamingRaidTest, ParityDiskFailureIsHarmless) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 32)).value();
  rig.sched->OnDiskFailed(4, /*mid_cycle=*/false);  // cluster 0 parity
  rig.sched->RunCycles(12);
  EXPECT_EQ(rig.sched->FindStream(id)->hiccup_count(), 0);
}

TEST(StreamingRaidTest, TwoFailuresInClusterAreCatastrophic) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 32)).value();
  rig.sched->OnDiskFailed(1, false);
  rig.sched->OnDiskFailed(2, false);
  rig.sched->RunCycles(12);
  // Two missing blocks per affected group cannot be rebuilt from one
  // parity block: hiccups on every pass over cluster 0.
  EXPECT_GT(rig.sched->FindStream(id)->hiccup_count(), 0);
  EXPECT_TRUE(rig.layout->LosesGroup(rig.disks->FailedPerCluster()));
}

TEST(StreamingRaidTest, FailuresInDistinctClustersAreMasked) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 32)).value();
  rig.sched->OnDiskFailed(1, false);  // cluster 0
  rig.sched->OnDiskFailed(7, false);  // cluster 1
  rig.sched->RunCycles(12);
  EXPECT_EQ(rig.sched->FindStream(id)->hiccup_count(), 0);
}

TEST(StreamingRaidTest, RepairRestoresNormalReads) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  rig.sched->AddStream(TestObject(0, 64)).value();
  rig.sched->OnDiskFailed(1, false);
  rig.sched->RunCycles(4);
  const int64_t reconstructed_before =
      rig.sched->metrics().reconstructed;
  rig.sched->OnDiskRepaired(1);
  rig.sched->RunCycles(8);
  EXPECT_EQ(rig.sched->metrics().reconstructed, reconstructed_before);
}

TEST(StreamingRaidTest, BufferPeakIsTwoCPerStream) {
  // Equation (12): 2C buffers per stream (group being read + group being
  // transmitted, parity included).
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  rig.sched->AddStream(TestObject(0, 400)).value();
  rig.sched->AddStream(TestObject(2, 400)).value();
  rig.sched->RunCycles(10);
  EXPECT_EQ(rig.sched->buffer_pool().peak_in_use(), 2 * kC * 2);
}

TEST(StreamingRaidTest, ShortFinalGroupDelivered) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 10)).value();
  rig.sched->RunCycles(5);  // 10 tracks = 2.5 groups
  const Stream* s = rig.sched->FindStream(id);
  EXPECT_EQ(s->state(), StreamState::kCompleted);
  EXPECT_EQ(s->delivered_tracks(), 10);
}

TEST(StreamingRaidTest, RateMismatchRejected) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, kC, kDisks);
  MediaObject wrong = TestObject(0, 16, /*rate_mb_s=*/0.5);
  EXPECT_EQ(rig.sched->AddStream(wrong).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ftms
