#include <gtest/gtest.h>

#include "server/server.h"
#include "tests/sched_test_util.h"

namespace ftms {
namespace {

// VCR controls (pause / resume / stop): state machine, buffer cleanup
// and admission accounting, across all four schedulers.

class VcrPerScheme : public ::testing::TestWithParam<Scheme> {};

TEST_P(VcrPerScheme, PauseFreezesPositionResumeContinues) {
  const Scheme scheme = GetParam();
  const int disks = scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  SchedRig rig = MakeRig(scheme, 5, disks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 64)).value();
  rig.sched->RunCycles(6);
  const int64_t pos = rig.sched->FindStream(id)->position();
  ASSERT_TRUE(rig.sched->PauseStream(id).ok());
  rig.sched->RunCycles(10);
  EXPECT_EQ(rig.sched->FindStream(id)->position(), pos);
  EXPECT_EQ(rig.sched->FindStream(id)->state(), StreamState::kPaused);
  ASSERT_TRUE(rig.sched->ResumeStream(id).ok());
  rig.sched->RunCycles(200);
  const Stream* s = rig.sched->FindStream(id);
  EXPECT_EQ(s->state(), StreamState::kCompleted);
  EXPECT_EQ(s->delivered_tracks() + s->hiccup_count(), 64);
  EXPECT_EQ(s->hiccup_count(), 0) << SchemeName(scheme);
}

TEST_P(VcrPerScheme, StopReleasesAllBuffers) {
  const Scheme scheme = GetParam();
  const int disks = scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  SchedRig rig = MakeRig(scheme, 5, disks);
  const StreamId a = rig.sched->AddStream(TestObject(0, 400)).value();
  const StreamId b = rig.sched->AddStream(TestObject(2, 400)).value();
  rig.sched->RunCycles(7);
  ASSERT_TRUE(rig.sched->StopStream(a).ok());
  ASSERT_TRUE(rig.sched->StopStream(b).ok());
  rig.sched->RunCycles(2);  // flush the cycle-end releases
  EXPECT_EQ(rig.sched->buffer_pool().in_use(), 0) << SchemeName(scheme);
  EXPECT_EQ(rig.sched->metrics().terminated_streams, 2);
}

TEST_P(VcrPerScheme, PauseHoldsItsBuffersAndStopFreesThem) {
  // A paused stream keeps the buffers it held and takes no more: ten
  // paused cycles leave the pool where the pause found it.
  const Scheme scheme = GetParam();
  const int disks = scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  SchedRig rig = MakeRig(scheme, 5, disks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 400)).value();
  rig.sched->RunCycles(6);
  ASSERT_TRUE(rig.sched->PauseStream(id).ok());
  const int64_t held = rig.sched->buffer_pool().in_use();
  rig.sched->RunCycles(10);
  EXPECT_EQ(rig.sched->buffer_pool().in_use(), held) << SchemeName(scheme);
  ASSERT_TRUE(rig.sched->StopStream(id).ok());
  rig.sched->RunCycles(2);  // flush the cycle-end releases
  EXPECT_EQ(rig.sched->buffer_pool().in_use(), 0) << SchemeName(scheme);
}

TEST_P(VcrPerScheme, StopDuringDegradedModeCleansUp) {
  const Scheme scheme = GetParam();
  const int disks = scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  SchedRig rig = MakeRig(scheme, 5, disks);
  const StreamId id = rig.sched->AddStream(TestObject(0, 400)).value();
  rig.sched->RunCycles(3);
  rig.sched->OnDiskFailed(1, false);
  rig.sched->RunCycles(5);
  ASSERT_TRUE(rig.sched->StopStream(id).ok());
  rig.sched->RunCycles(2);
  EXPECT_EQ(rig.sched->buffer_pool().in_use(), 0) << SchemeName(scheme);
}

INSTANTIATE_TEST_SUITE_P(Schemes, VcrPerScheme,
                         ::testing::Values(Scheme::kStreamingRaid,
                                           Scheme::kStaggeredGroup,
                                           Scheme::kNonClustered,
                                           Scheme::kImprovedBandwidth));

TEST(VcrControlsTest, StateMachineRejectsBadTransitions) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 10);
  const StreamId id = rig.sched->AddStream(TestObject(0, 16)).value();
  EXPECT_FALSE(rig.sched->ResumeStream(id).ok());  // not paused
  ASSERT_TRUE(rig.sched->PauseStream(id).ok());
  EXPECT_FALSE(rig.sched->PauseStream(id).ok());  // already paused
  ASSERT_TRUE(rig.sched->StopStream(id).ok());    // stop while paused: OK
  EXPECT_FALSE(rig.sched->StopStream(id).ok());   // already stopped
  EXPECT_FALSE(rig.sched->PauseStream(99).ok());  // unknown id
  // A completed stream cannot be stopped.
  const StreamId done = rig.sched->AddStream(TestObject(2, 4)).value();
  rig.sched->RunCycles(4);
  EXPECT_EQ(rig.sched->FindStream(done)->state(),
            StreamState::kCompleted);
  EXPECT_FALSE(rig.sched->StopStream(done).ok());
}

TEST(VcrControlsTest, ServerAdmissionAccounting) {
  ServerConfig config;
  config.scheme = Scheme::kStreamingRaid;
  config.parity_group_size = 5;
  config.params.num_disks = 10;
  config.params.k_reserve = 2;
  config.admission_override = 2;
  auto server = std::move(MultimediaServer::Create(config).value());
  MediaObject movie;
  movie.id = 0;
  movie.rate_mb_s = config.params.object_rate_mb_s;
  movie.num_tracks = 200;
  ASSERT_TRUE(server->AddObject(movie).ok());

  const StreamId a = server->StartStream(0).value();
  server->StartStream(0).value();
  EXPECT_FALSE(server->StartStream(0).ok());  // full

  // Pausing does NOT free the slot (bandwidth stays reserved)...
  ASSERT_TRUE(server->PauseStream(a).ok());
  server->RunCycles(5);
  EXPECT_FALSE(server->StartStream(0).ok());
  // ...stopping does.
  ASSERT_TRUE(server->StopStream(a).ok());
  EXPECT_TRUE(server->StartStream(0).ok());
  EXPECT_EQ(server->admission().active(), 2);
  server->RunCycles(300);  // the remaining streams complete
  EXPECT_EQ(server->admission().active(), 0);
}

}  // namespace
}  // namespace ftms
