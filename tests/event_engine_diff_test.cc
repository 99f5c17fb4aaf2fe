#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <tuple>

#include "qos/event_journal.h"
#include "reliability/failure_process.h"
#include "sim/simulator.h"
#include "tests/sched_test_util.h"
#include "util/metrics.h"

namespace ftms {
namespace {

// The event-engine determinism contract (DESIGN.md §11): the calendar
// queue and the binary-heap oracle must produce BYTE-IDENTICAL
// simulations — same event order, same journal, same metrics registry,
// same scheduler counters — for every scheme, healthy or under failure
// injection. A simulation driven through the simulator (periodic
// scheduler cycles + exponential failure/repair events) is replayed once
// per queue kind and the artifacts compared verbatim.

// Drops the one wall-clock-valued line from a registry dump
// (ftms_sched_cycle_wall_us_sum measures real elapsed time, not simulated
// state, so it legitimately differs run to run).
std::string ScrubWallClock(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string_view line(text.data() + pos, eol - pos + 1);
    if (line.find("cycle_wall_us_sum") == std::string_view::npos) {
      out.append(line);
    }
    pos = eol + 1;
  }
  return out;
}

struct EngineRun {
  std::string journal;
  std::string registry;
  SchedulerMetrics metrics;
  uint64_t events_processed = 0;
};

EngineRun RunScenario(Scheme scheme, bool with_failures,
                      EventQueueKind kind) {
  MetricsRegistry registry;
  EventJournal journal;
  RigOptions options;
  options.metrics = &registry;
  options.journal = &journal;
  const int disks = scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  SchedRig rig = MakeRig(scheme, 5, disks, options);
  rig.sched->AddStream(TestObject(0, 96)).value();
  rig.sched->AddStream(TestObject(1, 96)).value();

  Simulator sim(kind);
  sim.BindInstruments(registry.GetCounter("sim_events_total"),
                      registry.GetGauge("sim_events_pending"));
  sim.BindJournal(&journal);

  // Absurdly flaky shadow disks make several failure/repair episodes land
  // inside the run; the scheduler is told about one failure at a time.
  std::unique_ptr<DiskArray> shadow;
  std::unique_ptr<FailureProcess> process;
  int sched_failed = -1;
  if (with_failures) {
    DiskParameters flaky;
    flaky.mttf_hours = 0.002;
    flaky.mttr_hours = 0.0005;
    shadow = std::make_unique<DiskArray>(std::move(
        DiskArray::Create(disks, rig.layout->disks_per_cluster(), flaky)
            .value()));
    process = std::make_unique<FailureProcess>(
        &sim, shadow.get(), /*seed=*/11,
        FailureProcess::Callbacks{
            .on_failure =
                [&](int disk) {
                  if (sched_failed < 0) {
                    sched_failed = disk;
                    rig.sched->OnDiskFailed(disk, /*mid_cycle=*/false);
                  }
                },
            .on_repair =
                [&](int disk) {
                  if (disk == sched_failed) {
                    rig.sched->OnDiskRepaired(disk);
                    sched_failed = -1;
                  }
                }});
    process->Start();
  }

  const double cycle_s = rig.sched->CycleSeconds();
  PeriodicTimer cycle_timer(&sim, cycle_s, [&] {
    rig.sched->RunCycles(1);
    return true;
  });
  cycle_timer.Start(0.0);
  sim.RunUntil(150.0 * cycle_s);
  cycle_timer.Cancel();

  EngineRun out;
  out.journal = journal.ToJsonl();
  out.registry = ScrubWallClock(registry.PrometheusText());
  out.metrics = rig.sched->metrics();
  out.events_processed = sim.events_processed();
  return out;
}

using Scenario = std::tuple<Scheme, bool>;

class EventEngineDiff : public ::testing::TestWithParam<Scenario> {};

TEST_P(EventEngineDiff, HeapAndCalendarAreByteIdentical) {
  const auto [scheme, with_failures] = GetParam();
  const EngineRun heap =
      RunScenario(scheme, with_failures, EventQueueKind::kHeap);
  const EngineRun cal =
      RunScenario(scheme, with_failures, EventQueueKind::kCalendar);

  EXPECT_GT(heap.events_processed, 100u);  // the drill actually ran
  EXPECT_EQ(heap.events_processed, cal.events_processed);
  EXPECT_EQ(heap.journal, cal.journal);
  EXPECT_EQ(heap.registry, cal.registry);
  EXPECT_EQ(heap.metrics.cycles, cal.metrics.cycles);
  EXPECT_EQ(heap.metrics.data_reads, cal.metrics.data_reads);
  EXPECT_EQ(heap.metrics.parity_reads, cal.metrics.parity_reads);
  EXPECT_EQ(heap.metrics.failed_reads, cal.metrics.failed_reads);
  EXPECT_EQ(heap.metrics.dropped_reads, cal.metrics.dropped_reads);
  EXPECT_EQ(heap.metrics.tracks_delivered, cal.metrics.tracks_delivered);
  EXPECT_EQ(heap.metrics.hiccups, cal.metrics.hiccups);
  EXPECT_EQ(heap.metrics.reconstructed, cal.metrics.reconstructed);
  EXPECT_EQ(heap.metrics.shift_cascades, cal.metrics.shift_cascades);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, EventEngineDiff,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kStaggeredGroup,
                                         Scheme::kNonClustered,
                                         Scheme::kImprovedBandwidth),
                       ::testing::Bool()  // failure injection
                       ));

// With the queue kind fixed, the same drill replayed in one process must
// reproduce its journal and registry byte for byte: no state leaks from
// one run into the next.
TEST(EventEngineDiffTest, CalendarRunsAreRepeatable) {
  const EngineRun first =
      RunScenario(Scheme::kStreamingRaid, true, EventQueueKind::kCalendar);
  const EngineRun second =
      RunScenario(Scheme::kStreamingRaid, true, EventQueueKind::kCalendar);
  EXPECT_EQ(first.journal, second.journal);
  EXPECT_EQ(first.registry, second.registry);
  EXPECT_EQ(first.metrics, second.metrics);
}

}  // namespace
}  // namespace ftms
