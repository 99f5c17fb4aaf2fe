#include "qos/event_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tests/sched_test_util.h"

namespace ftms {
namespace {

QosEvent MakeEvent(QosEventKind kind) {
  QosEvent e;
  e.kind = kind;
  e.scheme = "SR";
  e.sim_us = 1500000;
  e.cycle = 3;
  e.disk = 2;
  e.cluster = 0;
  e.value = 1;
  return e;
}

TEST(EventJournalTest, KindNamesAreStable) {
  EXPECT_EQ(QosEventKindName(QosEventKind::kDiskFailed), "disk_failed");
  EXPECT_EQ(QosEventKindName(QosEventKind::kDiskRepaired), "disk_repaired");
  EXPECT_EQ(QosEventKindName(QosEventKind::kDegradedTransitionStart),
            "degraded_transition_start");
  EXPECT_EQ(QosEventKindName(QosEventKind::kDegradedTransitionEnd),
            "degraded_transition_end");
  EXPECT_EQ(QosEventKindName(QosEventKind::kRebuildStart), "rebuild_start");
  EXPECT_EQ(QosEventKindName(QosEventKind::kRebuildProgress),
            "rebuild_progress");
  EXPECT_EQ(QosEventKindName(QosEventKind::kRebuildDone), "rebuild_done");
  EXPECT_EQ(QosEventKindName(QosEventKind::kHiccups), "hiccups");
  EXPECT_EQ(QosEventKindName(QosEventKind::kAdmissionRejected),
            "admission_rejected");
  EXPECT_EQ(QosEventKindName(QosEventKind::kSloBreach), "slo_breach");
  EXPECT_EQ(QosEventKindName(QosEventKind::kSimHorizon), "sim_horizon");
}

TEST(EventJournalTest, JsonlLineHasFixedFieldOrder) {
  EventJournal journal;
  journal.Append(MakeEvent(QosEventKind::kDiskFailed));
  EXPECT_EQ(journal.ToJsonl(),
            "{\"kind\":\"disk_failed\",\"scheme\":\"SR\",\"sim_us\":1500000,"
            "\"cycle\":3,\"disk\":2,\"cluster\":0,\"stream\":-1,"
            "\"value\":1}\n");
}

TEST(EventJournalTest, SnapshotCountClearRoundTrip) {
  EventJournal journal;
  journal.Append(MakeEvent(QosEventKind::kDiskFailed));
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.CountOf(QosEventKind::kHiccups), 2);
  EXPECT_EQ(journal.CountOf(QosEventKind::kRebuildDone), 0);
  const auto events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], MakeEvent(QosEventKind::kDiskFailed));
  journal.Clear();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.ToJsonl(), "");
}

TEST(EventJournalTest, StatsJsonCountsPerKind) {
  EventJournal journal;
  journal.Append(MakeEvent(QosEventKind::kDiskFailed));
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  const std::string stats = journal.StatsJson("  ", "");
  EXPECT_NE(stats.find("\"journal_events\": 3"), std::string::npos);
  EXPECT_NE(stats.find("\"disk_failed\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"hiccups\": 2"), std::string::npos);
  // Kinds that never occurred are omitted.
  EXPECT_EQ(stats.find("rebuild_done"), std::string::npos);
}

TEST(EventJournalTest, WriteJsonlRoundTrips) {
  EventJournal journal;
  journal.Append(MakeEvent(QosEventKind::kDiskFailed));
  const std::string path =
      ::testing::TempDir() + "/event_journal_test.jsonl";
  ASSERT_TRUE(journal.WriteJsonl(path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, journal.ToJsonl());
  std::remove(path.c_str());
}

TEST(EventJournalTest, RingCapEvictsOldestAndCountsDrops) {
  EventJournal journal(/*max_events=*/3);
  for (int i = 0; i < 5; ++i) {
    QosEvent e = MakeEvent(QosEventKind::kHiccups);
    e.cycle = i;
    journal.Append(e);
  }
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.dropped(), 2);
  EXPECT_EQ(journal.total_appended(), 5);
  // The ring retains the newest 3 events, oldest-first.
  const auto events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].cycle, 2);
  EXPECT_EQ(events[2].cycle, 4);
}

TEST(EventJournalTest, DroppedFooterAppearsOnlyWhenTruncated) {
  EventJournal journal(/*max_events=*/2);
  journal.Append(MakeEvent(QosEventKind::kDiskFailed));
  EXPECT_EQ(journal.ToJsonl().find("journal_dropped"), std::string::npos);
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  const std::string jsonl = journal.ToJsonl();
  // Footer is the final line, uses the "sim" pseudo-scheme, and carries
  // the eviction count as its value.
  EXPECT_NE(jsonl.find("\"kind\":\"journal_dropped\",\"scheme\":\"sim\""),
            std::string::npos);
  // Footer is the final line and carries the eviction count.
  const size_t last_line = jsonl.rfind('\n', jsonl.size() - 2) + 1;
  EXPECT_EQ(jsonl.compare(last_line, 25, "{\"kind\":\"journal_dropped\""),
            0);
  EXPECT_NE(jsonl.find("\"value\":1}\n", last_line), std::string::npos);
  // StatsJson surfaces the same count.
  EXPECT_NE(journal.StatsJson("  ", "").find("\"journal_dropped\": 1"),
            std::string::npos);
}

TEST(EventJournalTest, ClearResetsDroppedCount) {
  EventJournal journal(/*max_events=*/1);
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  journal.Append(MakeEvent(QosEventKind::kHiccups));
  EXPECT_EQ(journal.dropped(), 1);
  journal.Clear();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.dropped(), 0);
  EXPECT_EQ(journal.ToJsonl(), "");
}

TEST(EventJournalTest, ZeroCapMeansUnbounded) {
  EventJournal journal(/*max_events=*/0);
  for (int i = 0; i < 1000; ++i) {
    journal.Append(MakeEvent(QosEventKind::kHiccups));
  }
  EXPECT_EQ(journal.size(), 1000u);
  EXPECT_EQ(journal.dropped(), 0);
}

TEST(EventJournalTest, TailLinesReturnsNewestOldestFirst) {
  EventJournal journal(/*max_events=*/4);
  for (int i = 0; i < 6; ++i) {
    QosEvent e = MakeEvent(QosEventKind::kHiccups);
    e.cycle = i;
    journal.Append(e);
  }
  int64_t total = 0, dropped = 0;
  const auto tail = journal.TailLines(2, &total, &dropped);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_NE(tail[0].find("\"cycle\":4"), std::string::npos);
  EXPECT_NE(tail[1].find("\"cycle\":5"), std::string::npos);
  EXPECT_EQ(total, 4);
  EXPECT_EQ(dropped, 2);
  // Asking for more than retained returns everything retained.
  EXPECT_EQ(journal.TailLines(100).size(), 4u);
}

TEST(EventJournalTest, GlobalIsOffByDefault) {
  // FTMS_QOS is unset in the test environment: the zero-cost-off
  // contract hands out no journal, and schedulers stay detached.
  EXPECT_EQ(EventJournal::GlobalIfEnabled(), nullptr);
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 10);
  EXPECT_EQ(rig.sched->journal(), nullptr);
  EXPECT_EQ(rig.sched->qos_ledger(), nullptr);
}

TEST(EventJournalTest, SetGlobalEnabledAttachesSchedulers) {
  EventJournal::SetGlobalEnabled(true);
  EventJournal::Global().Clear();
  {
    SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 10);
    EXPECT_EQ(rig.sched->journal(), &EventJournal::Global());
    // With no injected ledger the scheduler owns a private one.
    ASSERT_NE(rig.sched->qos_ledger(), nullptr);
    EXPECT_FALSE(rig.sched->qos_ledger()->slos().empty());
    rig.sched->AddStream(TestObject(0, 8)).value();
    rig.sched->OnDiskFailed(1, /*mid_cycle=*/false);
    rig.sched->RunCycles(4);
    EXPECT_EQ(EventJournal::Global().CountOf(QosEventKind::kDiskFailed), 1);
  }
  EventJournal::Global().Clear();
  EventJournal::SetGlobalEnabled(false);
  EXPECT_EQ(EventJournal::GlobalIfEnabled(), nullptr);
}

// One NC failure drill captured through a private journal: the semantic
// events appear in cause-to-effect order with the right payloads.
TEST(EventJournalTest, SchedulerEmitsFailureLifecycle) {
  EventJournal journal;
  RigOptions options;
  options.journal = &journal;
  SchedRig rig = MakeRig(Scheme::kNonClustered, 5, 10, options);
  rig.sched->AddStream(TestObject(0, 40)).value();
  rig.sched->RunCycles(2);
  rig.sched->OnDiskFailed(2, /*mid_cycle=*/true);
  rig.sched->RunCycles(3);
  rig.sched->OnDiskRepaired(2);
  rig.sched->RunCycles(2);

  const auto events = journal.Snapshot();
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events[0].kind, QosEventKind::kDiskFailed);
  EXPECT_EQ(events[0].scheme, "NC");
  EXPECT_EQ(events[0].cycle, 2);
  EXPECT_EQ(events[0].disk, 2);
  EXPECT_EQ(events[0].cluster, 0);
  EXPECT_EQ(events[0].value, 1);  // mid-sweep
  EXPECT_EQ(events[1].kind, QosEventKind::kDegradedTransitionStart);
  EXPECT_EQ(events[1].cluster, 0);
  EXPECT_EQ(events[1].value, 5);  // C-cycle window bound
  // The repair at cycle 5 cuts the C-cycle transition short.
  EXPECT_EQ(journal.CountOf(QosEventKind::kDiskRepaired), 1);
  EXPECT_EQ(journal.CountOf(QosEventKind::kDegradedTransitionEnd), 1);
  for (const QosEvent& e : events) {
    if (e.kind == QosEventKind::kDegradedTransitionEnd) {
      EXPECT_EQ(e.value, 1);  // ended early by the repair
    }
  }
}

TEST(EventJournalTest, HiccupDeltasAreJournaledPerCycle) {
  EventJournal journal;
  RigOptions options;
  options.journal = &journal;
  options.slots_per_disk = 1;
  options.nc_transition = NcTransition::kImmediateShift;
  SchedRig rig = MakeRig(Scheme::kNonClustered, 5, 10, options);
  // The Figure 6 drill: three streams staggered on cluster 0, whose
  // shifted group reads displace each other once disk 2 fails.
  for (int i = 0; i < 3; ++i) {
    rig.sched->AddStream(TestObject(2 * i, 8)).value();
    rig.sched->RunCycle();
  }
  rig.sched->OnDiskFailed(2, /*mid_cycle=*/false);
  rig.sched->RunCycles(20);
  int64_t journaled = 0;
  for (const QosEvent& e : journal.Snapshot()) {
    if (e.kind == QosEventKind::kHiccups) journaled += e.value;
  }
  EXPECT_EQ(journaled, rig.sched->metrics().hiccups);
  EXPECT_GT(journaled, 0);
}

TEST(EventJournalTest, AdmissionRejectionIsJournaled) {
  EventJournal journal;
  RigOptions options;
  options.journal = &journal;
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 10, options);
  // SR requires the configured uniform rate; a 2x object is unservable.
  EXPECT_FALSE(rig.sched->AddStream(TestObject(0, 8, 0.375)).ok());
  EXPECT_EQ(journal.CountOf(QosEventKind::kAdmissionRejected), 1);
}

std::string JournalOfNcDrill() {
  EventJournal journal;
  RigOptions options;
  options.journal = &journal;
  options.nc_transition = NcTransition::kImmediateShift;
  options.slots_per_disk = 1;
  SchedRig rig = MakeRig(Scheme::kNonClustered, 5, 10, options);
  for (int i = 0; i < 4; ++i) {
    rig.sched->AddStream(TestObject(2 * i, 12)).value();
    rig.sched->RunCycle();
  }
  rig.sched->OnDiskFailed(2, /*mid_cycle=*/true);
  rig.sched->RunCycles(20);
  return journal.ToJsonl();
}

TEST(EventJournalTest, JournalBytesAreRepeatable) {
  // The journal is a pure function of the drill: replaying it must
  // reproduce the JSONL byte for byte.
  const std::string first = JournalOfNcDrill();
  const std::string second = JournalOfNcDrill();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ftms
