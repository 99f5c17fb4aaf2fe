#include "qos/conformance.h"

#include <gtest/gtest.h>

#include "sched/streaming_raid_scheduler.h"
#include "tests/sched_test_util.h"

namespace ftms {
namespace {

struct QosRig {
  EventJournal journal;
  QosLedger ledger;
  SchedRig rig;
};

std::unique_ptr<QosRig> MakeQosRig(Scheme scheme, int num_disks,
                                   RigOptions options = RigOptions()) {
  auto q = std::make_unique<QosRig>();
  q->ledger.set_journal(&q->journal);
  options.journal = &q->journal;
  options.ledger = &q->ledger;
  q->rig = MakeRig(scheme, 5, num_disks, options);
  return q;
}

const ConformanceFinding* Find(
    const std::vector<ConformanceFinding>& findings,
    std::string_view check) {
  for (const ConformanceFinding& f : findings) {
    if (f.check == check) return &f;
  }
  return nullptr;
}

TEST(ConformanceTest, SrMaskedFailurePassesAllChecks) {
  auto q = MakeQosRig(Scheme::kStreamingRaid, 10);
  q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(2, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(20);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* zero =
      Find(findings, "sr_zero_hiccup_guarantee");
  ASSERT_NE(zero, nullptr);
  EXPECT_TRUE(zero->applicable);
  EXPECT_TRUE(zero->ok);
  EXPECT_EQ(zero->observed, 0);
  const ConformanceFinding* attribution =
      Find(findings, "hiccup_attribution_consistent");
  ASSERT_NE(attribution, nullptr);
  EXPECT_TRUE(attribution->ok);
}

TEST(ConformanceTest, SgMaskedFailurePassesAllChecks) {
  auto q = MakeQosRig(Scheme::kStaggeredGroup, 10);
  q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(1, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(30);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* zero =
      Find(findings, "sg_zero_hiccup_guarantee");
  ASSERT_NE(zero, nullptr);
  EXPECT_TRUE(zero->applicable);
  EXPECT_EQ(zero->observed, 0);
}

// The canonical NC transition drill (Figures 5-7, see sched_nc_test.cc).
std::unique_ptr<QosRig> RunNcTransition(NcTransition transition) {
  RigOptions options;
  options.nc_transition = transition;
  options.slots_per_disk = 1;
  auto q = MakeQosRig(Scheme::kNonClustered, 10, options);
  int next_object = 0;
  const auto add = [&] {
    q->rig.sched->AddStream(TestObject(2 * next_object++, 8)).value();
  };
  add();                        // U
  q->rig.sched->RunCycle();
  add();                        // W
  q->rig.sched->RunCycle();
  add();                        // Y
  q->rig.sched->RunCycle();
  q->rig.sched->OnDiskFailed(2, /*mid_cycle=*/false);
  for (int i = 0; i < 4; ++i) {  // A, C, E, G
    add();
    q->rig.sched->RunCycle();
  }
  q->rig.sched->RunCycles(20);
  return q;
}

TEST(ConformanceTest, NcImmediateShiftMeetsTheTightBound) {
  auto q = RunNcTransition(NcTransition::kImmediateShift);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  // Figure 6 loses exactly 1+2+3 = 6 tracks at C=5: the paper's
  // (C-1)(C-2)/2 bound is tight and the watchdog sees it met exactly.
  const ConformanceFinding* total = Find(findings, "nc_loss_total_bound");
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(total->applicable);
  EXPECT_EQ(total->observed, 6);
  EXPECT_EQ(total->bound, 6);
  const ConformanceFinding* per_stream =
      Find(findings, "nc_loss_per_stream_bound");
  ASSERT_NE(per_stream, nullptr);
  EXPECT_EQ(per_stream->observed, 3);  // Y, at group position 1
  EXPECT_EQ(per_stream->bound, 3);     // C - 2
  const ConformanceFinding* window =
      Find(findings, "nc_transition_window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->observed, 0);  // nothing lost outside [f, f+C]
}

TEST(ConformanceTest, NcDeferredReadStaysUnderTheBound) {
  auto q = RunNcTransition(NcTransition::kDeferredRead);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* total = Find(findings, "nc_loss_total_bound");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->observed, 3);  // Figure 7: W2, Y2, Y3 only
  EXPECT_EQ(total->bound, 6);
}

TEST(ConformanceTest, IbMidCycleFailureStaysIsolated) {
  auto q = MakeQosRig(Scheme::kImprovedBandwidth, 8);
  q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(0, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(20);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* isolated =
      Find(findings, "ib_isolated_hiccup");
  ASSERT_NE(isolated, nullptr);
  EXPECT_TRUE(isolated->applicable);
  EXPECT_EQ(isolated->observed, 1);
  EXPECT_EQ(isolated->bound, 1);  // one mid-sweep failure
  const ConformanceFinding* window = Find(findings, "ib_hiccup_window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->observed, 0);  // confined to [f, f+1]
  const ConformanceFinding* cascade =
      Find(findings, "ib_cascade_depth_bound");
  ASSERT_NE(cascade, nullptr);
  EXPECT_LE(cascade->observed, 2);  // at most once around 2 clusters
  const ConformanceFinding* reserve =
      Find(findings, "ib_reserve_degradation");
  ASSERT_NE(reserve, nullptr);
  EXPECT_TRUE(reserve->applicable);
  EXPECT_EQ(reserve->observed, 0);
}

TEST(ConformanceTest, ChecksSkipWhenNoFailureWasInjected) {
  auto q = MakeQosRig(Scheme::kStreamingRaid, 10);
  q->rig.sched->AddStream(TestObject(0, 16)).value();
  q->rig.sched->RunCycles(8);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* zero =
      Find(findings, "sr_zero_hiccup_guarantee");
  ASSERT_NE(zero, nullptr);
  EXPECT_FALSE(zero->applicable);
  EXPECT_NE(zero->detail.find("no failures"), std::string::npos);
}

TEST(ConformanceTest, ChecksSkipWithoutAJournal) {
  SchedRig rig = MakeRig(Scheme::kNonClustered, 5, 10);
  rig.sched->AddStream(TestObject(0, 16)).value();
  rig.sched->RunCycles(8);
  ConformanceWatchdog watchdog(rig.sched.get(), nullptr);
  const auto findings = watchdog.Run();
  EXPECT_TRUE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* window =
      Find(findings, "nc_transition_window");
  ASSERT_NE(window, nullptr);
  EXPECT_FALSE(window->applicable);
  EXPECT_NE(window->detail.find("no journal"), std::string::npos);
}

TEST(ConformanceTest, OverlappingFailuresVoidTheBounds) {
  auto q = MakeQosRig(Scheme::kStreamingRaid, 10);
  q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(1, /*mid_cycle=*/false);  // cluster 0
  q->rig.sched->OnDiskFailed(7, /*mid_cycle=*/false);  // cluster 1
  q->rig.sched->RunCycles(10);
  ConformanceWatchdog watchdog(q->rig.sched.get(), &q->journal);
  const auto findings = watchdog.Run();
  const ConformanceFinding* zero =
      Find(findings, "sr_zero_hiccup_guarantee");
  ASSERT_NE(zero, nullptr);
  EXPECT_FALSE(zero->applicable);
  EXPECT_NE(zero->detail.find("overlapping"), std::string::npos);
}

// A deliberately broken SR variant: after a failure it charges one
// delivery as missed even though parity masked it — the exact bug class
// (accounting drift between masking and delivery) the watchdog exists to
// catch. The forged delivery is a whole group, its first track missed, so
// the stream stays on a group boundary as Streaming RAID's reads require.
// Test-only; lives nowhere near the production schedulers.
class BrokenStreamingRaidScheduler : public StreamingRaidScheduler {
 public:
  using StreamingRaidScheduler::StreamingRaidScheduler;

 protected:
  void DoRunCycle() override {
    StreamingRaidScheduler::DoRunCycle();
    if (disks_->NumFailed() > 0 && !tripped_) {
      for (const auto& stream : streams()) {
        if (stream->state() == StreamState::kActive) {
          Stream* victim = FindStream(stream->id());
          DeliverTrack(victim, /*on_time=*/false);
          DeliverTracksOnTime(victim, layout_.DataBlocksPerGroup() - 1);
          tripped_ = true;
          break;
        }
      }
    }
  }

 private:
  bool tripped_ = false;
};

TEST(ConformanceTest, BrokenSchedulerTripsTheZeroHiccupGuarantee) {
  EventJournal journal;
  QosLedger ledger;
  ledger.set_journal(&journal);
  auto layout = std::move(
      CreateLayout(Scheme::kStreamingRaid, 10, 5).value());
  DiskParameters disk;
  auto disks = std::make_unique<DiskArray>(std::move(
      DiskArray::Create(10, layout->disks_per_cluster(), disk).value()));
  SchedulerConfig config;
  config.scheme = Scheme::kStreamingRaid;
  config.parity_group_size = 5;
  config.disk = disk;
  config.journal = &journal;
  config.ledger = &ledger;
  BrokenStreamingRaidScheduler sched(config, disks.get(), layout.get());
  sched.AddStream(TestObject(0, 64)).value();
  sched.RunCycles(2);
  sched.OnDiskFailed(2, /*mid_cycle=*/true);
  sched.RunCycles(10);

  ConformanceWatchdog watchdog(&sched, &journal);
  const auto findings = watchdog.Run();
  EXPECT_FALSE(ConformanceWatchdog::AllOk(findings));
  const ConformanceFinding* zero =
      Find(findings, "sr_zero_hiccup_guarantee");
  ASSERT_NE(zero, nullptr);
  EXPECT_TRUE(zero->applicable);
  EXPECT_FALSE(zero->ok);
  EXPECT_GE(zero->observed, 1);
  // The forged hiccup also reached the ledger and the journal: the whole
  // observability chain reports the violation, not just the counter.
  EXPECT_GT(journal.CountOf(QosEventKind::kHiccups), 0);
  const std::string table = ConformanceWatchdog::FormatTable(findings);
  EXPECT_NE(table.find("VIOLATION"), std::string::npos);
  const std::string json = ConformanceWatchdog::ToJson(findings);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

TEST(ConformanceTest, FormatTableAndJsonCoverSkippedChecks) {
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 10);
  rig.sched->RunCycles(2);
  ConformanceWatchdog watchdog(rig.sched.get(), nullptr);
  const auto findings = watchdog.Run();
  const std::string table = ConformanceWatchdog::FormatTable(findings);
  EXPECT_NE(table.find("check"), std::string::npos);
  EXPECT_NE(table.find("SKIPPED"), std::string::npos);
  EXPECT_NE(table.find("OK"), std::string::npos);
  const std::string json = ConformanceWatchdog::ToJson(findings);
  EXPECT_NE(json.find("\"applicable\": false"), std::string::npos);
}

}  // namespace
}  // namespace ftms
