#include "qos/qos_ledger.h"

#include <gtest/gtest.h>

#include "tests/sched_test_util.h"
#include "util/metrics.h"

namespace ftms {
namespace {

// A rig with a private journal + ledger attached, shared setup for the
// attribution scenarios.
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

int64_t LedgerHiccupSum(const QosRig& q) {
  int64_t sum = 0;
  for (const StreamQosRecord& r :
       q.ledger.Capture(q.rig.sched->streams())) {
    sum += r.hiccups;
  }
  return sum;
}

TEST(QosLedgerTest, CapturesStartupLatencyAndContinuity) {
  auto q = MakeQosRig(Scheme::kStreamingRaid, 10);
  q->rig.sched->RunCycles(3);
  const StreamId id = q->rig.sched->AddStream(TestObject(0, 8)).value();
  q->rig.sched->RunCycles(6);
  const auto records = q->ledger.Capture(q->rig.sched->streams());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, id);
  EXPECT_EQ(records[0].admitted_cycle, 3);
  // SR reads the first group during the admission cycle and delivers it
  // in the next: startup latency is one cycle.
  EXPECT_EQ(records[0].first_delivered_cycle, 4);
  EXPECT_EQ(records[0].startup_cycles, 1);
  EXPECT_EQ(records[0].hiccups, 0);
  EXPECT_EQ(records[0].continuity, 1.0);
}

// Per-stream hiccup attribution under a mid-cycle failure, for each of
// the four schemes: the ledger's per-stream counts must sum to the
// scheduler's aggregate, and land on the streams the paper predicts.
TEST(QosLedgerTest, SrMidCycleFailureAttributesNothing) {
  auto q = MakeQosRig(Scheme::kStreamingRaid, 10);
  q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(2, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(20);
  // SR holds the parity block in memory with the group: even a mid-sweep
  // failure is masked and no stream is charged a hiccup.
  EXPECT_EQ(q->rig.sched->metrics().hiccups, 0);
  EXPECT_EQ(LedgerHiccupSum(*q), 0);
  EXPECT_EQ(q->rig.sched->TotalHiccups(), 0);
}

TEST(QosLedgerTest, SgMidCycleFailureAttributesNothing) {
  auto q = MakeQosRig(Scheme::kStaggeredGroup, 10);
  q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(1, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(30);
  EXPECT_EQ(q->rig.sched->metrics().hiccups, 0);
  EXPECT_EQ(LedgerHiccupSum(*q), 0);
}

TEST(QosLedgerTest, IbMidCycleFailureChargesOneHiccupToAffectedStream) {
  auto q = MakeQosRig(Scheme::kImprovedBandwidth, 8);
  const StreamId hit = q->rig.sched->AddStream(TestObject(0, 64)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(0, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(20);
  const auto records = q->ledger.Capture(q->rig.sched->streams());
  ASSERT_EQ(records.size(), 1u);
  // Section 4: exactly one isolated hiccup on the stream whose read was
  // in flight, then parity substitution masks the rest.
  EXPECT_EQ(records[0].id, hit);
  EXPECT_EQ(records[0].hiccups, 1);
  EXPECT_EQ(LedgerHiccupSum(*q), q->rig.sched->TotalHiccups());
  EXPECT_EQ(LedgerHiccupSum(*q), q->rig.sched->metrics().hiccups);
}

// The canonical NC transition scenario of Figures 5-7 (see
// sched_nc_test.cc), re-run through the ledger: the per-stream
// attribution must reproduce the paper's which-streams-are-hit table.
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

TEST(QosLedgerTest, NcImmediateShiftAttributionMatchesFigure6) {
  auto q = RunNcTransition(NcTransition::kImmediateShift);
  const auto records = q->ledger.Capture(q->rig.sched->streams());
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[0].hiccups, 1);  // U loses U3
  EXPECT_EQ(records[1].hiccups, 2);  // W loses W2, W3
  EXPECT_EQ(records[2].hiccups, 3);  // Y loses Y1, Y2, Y3
  for (size_t i = 3; i < records.size(); ++i) {
    EXPECT_EQ(records[i].hiccups, 0);  // A and later reconstruct
  }
  EXPECT_EQ(LedgerHiccupSum(*q), 6);
  EXPECT_EQ(LedgerHiccupSum(*q), q->rig.sched->TotalHiccups());
  EXPECT_EQ(LedgerHiccupSum(*q), q->rig.sched->metrics().hiccups);
}

TEST(QosLedgerTest, NcDeferredReadAttributionMatchesFigure7) {
  auto q = RunNcTransition(NcTransition::kDeferredRead);
  const auto records = q->ledger.Capture(q->rig.sched->streams());
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[0].hiccups, 0);  // U keeps U3
  EXPECT_EQ(records[1].hiccups, 1);  // W loses W2
  EXPECT_EQ(records[2].hiccups, 2);  // Y loses Y2, Y3
  EXPECT_EQ(LedgerHiccupSum(*q), 3);
  EXPECT_EQ(LedgerHiccupSum(*q), q->rig.sched->TotalHiccups());
}

TEST(QosLedgerTest, DegradedExposureCountsOnlyFailedCycles) {
  auto q = MakeQosRig(Scheme::kStreamingRaid, 10);
  const StreamId id = q->rig.sched->AddStream(TestObject(0, 400)).value();
  q->rig.sched->RunCycles(2);
  q->rig.sched->OnDiskFailed(1, /*mid_cycle=*/false);
  q->rig.sched->RunCycles(5);
  q->rig.sched->OnDiskRepaired(1);
  q->rig.sched->RunCycles(4);
  EXPECT_EQ(q->ledger.degraded_cycles(id), 5);
  EXPECT_EQ(q->ledger.degraded_stream_cycles(), 5);
  EXPECT_EQ(q->ledger.cycles_observed(), 11);
  EXPECT_EQ(q->ledger.failures_observed(), 1);
  const auto records = q->ledger.Capture(q->rig.sched->streams());
  EXPECT_EQ(records[0].degraded_cycles, 5);
}

TEST(QosLedgerTest, EvaluateSlosScalesPerFailureBounds) {
  std::vector<StreamQosRecord> records(3);
  records[0].hiccups = 2;
  records[1].hiccups = 5;
  records[2].hiccups = 0;
  for (auto& r : records) {
    r.delivered = 95;
    r.continuity = static_cast<double>(r.delivered) /
                   static_cast<double>(r.delivered + r.hiccups);
    r.startup_cycles = 1;
  }
  std::vector<SloSpec> slos;
  slos.push_back({"per_stream", SloKind::kMaxHiccupsPerStream, 2.0,
                  /*per_failure=*/true});
  slos.push_back({"total", SloKind::kMaxTotalHiccups, 10.0,
                  /*per_failure=*/false});
  slos.push_back({"continuity", SloKind::kMinContinuity, 0.99,
                  /*per_failure=*/false});

  // Two failures: the per-failure bound doubles to 4, still breached by
  // the worst stream's 5.
  auto statuses = EvaluateSlos(records, slos, /*failures=*/2);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0].effective_bound, 4.0);
  EXPECT_EQ(statuses[0].observed, 5.0);
  EXPECT_TRUE(statuses[0].breached);
  EXPECT_DOUBLE_EQ(statuses[0].budget_burn, 5.0 / 4.0);
  EXPECT_EQ(statuses[1].observed, 7.0);
  EXPECT_FALSE(statuses[1].breached);
  EXPECT_DOUBLE_EQ(statuses[1].budget_burn, 0.7);
  // Worst continuity 95/100 = 0.95 < 0.99: burn = 0.05 / 0.01 = 5.
  EXPECT_TRUE(statuses[2].breached);
  EXPECT_NEAR(statuses[2].budget_burn, 5.0, 1e-9);

  // Three failures lift the per-stream bound to 6: no longer breached.
  statuses = EvaluateSlos(records, slos, /*failures=*/3);
  EXPECT_FALSE(statuses[0].breached);

  // A zero-bound SLO burns 1 + observed on any occurrence.
  std::vector<SloSpec> zero = {{"none", SloKind::kMaxHiccupsPerStream, 0.0,
                                /*per_failure=*/false}};
  statuses = EvaluateSlos(records, zero, 0);
  EXPECT_TRUE(statuses[0].breached);
  EXPECT_DOUBLE_EQ(statuses[0].budget_burn, 6.0);
}

TEST(QosLedgerTest, DefaultSlosEncodeThePaperBounds) {
  const auto bound_of = [](Scheme scheme) {
    return DefaultSlos(scheme, 5).at(0).bound;
  };
  EXPECT_EQ(bound_of(Scheme::kStreamingRaid), 0);
  EXPECT_EQ(bound_of(Scheme::kStaggeredGroup), 0);
  EXPECT_EQ(bound_of(Scheme::kImprovedBandwidth), 1);
  EXPECT_EQ(bound_of(Scheme::kNonClustered), 3);  // C - 2
  for (Scheme scheme : kAllSchemes) {
    const auto slos = DefaultSlos(scheme, 5);
    ASSERT_EQ(slos.size(), 2u) << SchemeName(scheme);
    EXPECT_TRUE(slos[0].per_failure);
    EXPECT_EQ(slos[1].kind, SloKind::kMaxStartupP99Cycles);
    EXPECT_EQ(slos[1].bound, 10);  // 2C
  }
}

TEST(QosLedgerTest, BreachIsEdgeTriggeredAndJournaled) {
  RigOptions options;
  options.nc_transition = NcTransition::kImmediateShift;
  options.slots_per_disk = 1;
  auto q = std::make_unique<QosRig>();
  q->ledger.set_journal(&q->journal);
  // A deliberately strict SLO: NC cannot hold zero hiccups through an
  // immediate-shift transition.
  q->ledger.SetSlos({{"zero_hiccups", SloKind::kMaxHiccupsPerStream, 0.0,
                      /*per_failure=*/false}});
  options.journal = &q->journal;
  options.ledger = &q->ledger;
  q->rig = MakeRig(Scheme::kNonClustered, 5, 10, options);
  for (int i = 0; i < 3; ++i) {  // the staggered Figure 6 drill
    q->rig.sched->AddStream(TestObject(2 * i, 8)).value();
    q->rig.sched->RunCycle();
  }
  q->rig.sched->OnDiskFailed(2, /*mid_cycle=*/false);
  q->rig.sched->RunCycles(20);
  EXPECT_EQ(q->ledger.active_breaches(), 1);
  // The breach persisted over many cycles but is journaled exactly once.
  EXPECT_EQ(q->ledger.breach_events(), 1);
  EXPECT_EQ(q->journal.CountOf(QosEventKind::kSloBreach), 1);
  for (const QosEvent& e : q->journal.Snapshot()) {
    if (e.kind == QosEventKind::kSloBreach) {
      EXPECT_EQ(e.value, 0);  // index of the breached SloSpec
    }
  }
}

TEST(QosLedgerTest, BindMetricsExportsQosGauges) {
  MetricsRegistry registry;
  RigOptions options;
  options.nc_transition = NcTransition::kImmediateShift;
  options.slots_per_disk = 1;
  options.metrics = &registry;
  auto q = std::make_unique<QosRig>();
  options.journal = &q->journal;
  options.ledger = &q->ledger;
  q->rig = MakeRig(Scheme::kNonClustered, 5, 10, options);
  for (int i = 0; i < 3; ++i) {  // the staggered Figure 6 drill
    q->rig.sched->AddStream(TestObject(2 * i, 8)).value();
    q->rig.sched->RunCycle();
  }
  q->rig.sched->OnDiskFailed(2, /*mid_cycle=*/false);
  q->rig.sched->RunCycles(20);
  // The scheduler bound the injected ledger to its registry with the
  // scheme label; the worst-stream gauge must mirror the stream table.
  Gauge* worst = registry.GetGauge(
      LabeledName("ftms_qos_worst_stream_hiccups", {{"scheme", "NC"}}), "");
  int64_t expected = 0;
  for (const auto& stream : q->rig.sched->streams()) {
    expected = std::max(expected, stream->hiccup_count());
  }
  EXPECT_GT(expected, 0);
  EXPECT_EQ(worst->value(), static_cast<double>(expected));
  Gauge* degraded = registry.GetGauge(
      LabeledName("ftms_qos_degraded_stream_cycles", {{"scheme", "NC"}}),
      "");
  EXPECT_GT(degraded->value(), 0);
}

std::string DumpOfNcDrill() {
  RigOptions options;
  options.nc_transition = NcTransition::kImmediateShift;
  options.slots_per_disk = 1;
  auto q = std::make_unique<QosRig>();
  options.journal = &q->journal;
  options.ledger = &q->ledger;
  q->rig = MakeRig(Scheme::kNonClustered, 5, 10, options);
  for (int i = 0; i < 4; ++i) {
    q->rig.sched->AddStream(TestObject(2 * i, 12)).value();
    q->rig.sched->RunCycle();
  }
  q->rig.sched->OnDiskFailed(2, /*mid_cycle=*/true);
  q->rig.sched->RunCycles(20);
  return q->ledger.DumpJson(q->rig.sched->streams());
}

TEST(QosLedgerTest, DumpJsonBytesAreRepeatable) {
  const std::string first = DumpOfNcDrill();
  const std::string second = DumpOfNcDrill();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Sanity: the dump carries the per-stream table and SLO statuses.
  EXPECT_NE(first.find("\"streams\": ["), std::string::npos);
  EXPECT_NE(first.find("\"slos\": ["), std::string::npos);
}

}  // namespace
}  // namespace ftms
