#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/sched_test_util.h"

namespace ftms {
namespace {

// Golden end-to-end metrics for the five bench_full_farm runs (Table 1
// scale: D = 100, C = 5, ~1000 streams, one mid-cycle failure + repair).
// The values were captured from the pre-optimization scheduler (ordered
// std::set bookkeeping, per-cycle allocations); the allocation-free hot
// path must reproduce every counter EXACTLY. If an intentional scheduling
// change moves these numbers, re-capture and update the table — never
// loosen the comparison.

struct GoldenRow {
  Scheme scheme;
  int c;
  int disks;
  int streams;
  int stagger_every;
  SchedulerMetrics want;
  int64_t want_buffer_peak;
  // Mid-cycle failure of disk 1 after 30 cycles, repaired 30 cycles
  // later; false runs the same 40 cycles healthy.
  bool fail = true;
  int64_t tracks = 100000;
  // Every n-th stream (from stream 0) at 3x the base rate; 0 = none.
  int fast_every = 0;
  // Every n-th stream (from stream 0) paused from the failure to the
  // repair; 0 = none.
  int pause_every = 0;
};

SchedulerMetrics Metrics(int64_t cycles, int64_t data_reads,
                         int64_t parity_reads, int64_t failed_reads,
                         int64_t dropped_reads, int64_t tracks_delivered,
                         int64_t hiccups, int64_t reconstructed,
                         int64_t degradation_events, int64_t shift_cascades,
                         int64_t max_shift_depth) {
  SchedulerMetrics m;
  m.cycles = cycles;
  m.data_reads = data_reads;
  m.parity_reads = parity_reads;
  m.failed_reads = failed_reads;
  m.dropped_reads = dropped_reads;
  m.tracks_delivered = tracks_delivered;
  m.hiccups = hiccups;
  m.reconstructed = reconstructed;
  m.degradation_events = degradation_events;
  m.shift_cascades = shift_cascades;
  m.max_shift_depth = max_shift_depth;
  return m;
}

std::vector<GoldenRow> GoldenRows() {
  return {
      {Scheme::kStreamingRaid, 5, 100, 1040, 0,
       Metrics(70, 289640, 72800, 1560, 0, 287040, 0, 1560, 0, 0, 0),
       10400},
      {Scheme::kStaggeredGroup, 5, 100, 960, 0,
       Metrics(70, 66840, 16800, 360, 0, 64800, 0, 360, 0, 0, 0), 4560},
      {Scheme::kNonClustered, 5, 100, 960, 12,
       Metrics(150, 105684, 348, 0, 36, 105072, 48, 348, 0, 0, 0), 1980},
      {Scheme::kImprovedBandwidth, 5, 96, 960, 0,
       Metrics(70, 266208, 2552, 40, 0, 264920, 40, 2552, 0, 1392, 3),
       7680},
      {Scheme::kImprovedBandwidth, 5, 96, 1200, 0,
       Metrics(70, 317158, 18734, 50, 0, 331092, 108, 18734, 58, 17342, 23),
       9600},
  };
}

// Pins for the cases the Table-1 rows above leave open, captured from
// the serial schedule (every cycle in admission order): both dual-parity
// farms, the four schemes without a failure, and an NC population whose
// every seventh stream runs at 3x the base rate (its bursts can touch two
// clusters in one cycle). SR-2's drops and hiccups come from its one-track
// cycle (CycleSeconds uses k' = 1 for it); they are pinned as they are.
std::vector<GoldenRow> SerialScheduleRows() {
  constexpr bool kHealthy = false;
  return {
      {Scheme::kStreamingRaid2, 6, 96, 832, 0,
       Metrics(70, 53400, 26880, 360, 268800, 52992, 176640, 360, 0, 0, 0),
       9984},
      {Scheme::kNonClustered2, 6, 96, 768, 12,
       Metrics(134, 78324, 348, 0, 36, 77904, 48, 348, 0, 0, 0), 1596},
      {Scheme::kStreamingRaid, 5, 100, 1040, 0,
       Metrics(40, 166400, 41600, 0, 0, 162240, 0, 0, 0, 0, 0), 10400,
       kHealthy},
      {Scheme::kStaggeredGroup, 5, 100, 960, 0,
       Metrics(40, 38400, 9600, 0, 0, 36000, 0, 0, 0, 0, 0), 4560, kHealthy},
      {Scheme::kNonClustered, 5, 100, 960, 12,
       Metrics(120, 77280, 0, 0, 0, 76320, 0, 0, 0, 0, 0), 1920, kHealthy},
      {Scheme::kImprovedBandwidth, 5, 96, 960, 0,
       Metrics(40, 153600, 0, 0, 0, 149760, 0, 0, 0, 0, 0), 7680, kHealthy},
      {Scheme::kNonClustered, 5, 100, 400, 12,
       Metrics(103, 44609, 190, 0, 1, 44283, 5, 190, 0, 0, 0), 1067,
       /*fail=*/true, /*tracks=*/9996, /*fast_every=*/7},
  };
}

// A paused stream holds the group buffer it filled and takes no more, so
// an IB farm with every tenth stream paused through the failure window
// keeps the buffer peak of the same farm unpaused.
std::vector<GoldenRow> PausedStreamRows() {
  return {
      {Scheme::kImprovedBandwidth, 5, 96, 960, 0,
       Metrics(70, 255500, 1748, 32, 0, 253408, 32, 1748, 0, 700, 2), 7680,
       /*fail=*/true, /*tracks=*/100000, /*fast_every=*/0,
       /*pause_every=*/10},
  };
}

void ExpectRowMatches(const GoldenRow& row) {
  SCOPED_TRACE(std::string(SchemeName(row.scheme)) + " x " +
               std::to_string(row.streams) +
               (row.fail ? " with failure" : " healthy"));
  SchedRig rig = MakeRig(row.scheme, row.c, row.disks);
  const int clusters = rig.layout->num_clusters();
  std::vector<StreamId> paused;
  for (int i = 0; i < row.streams; ++i) {
    const bool fast = row.fast_every > 0 && i % row.fast_every == 0;
    const StreamId id =
        rig.sched
            ->AddStream(TestObject(i % clusters, row.tracks,
                                   fast ? 3 * 0.1875 : 0.1875))
            .value();
    if (row.pause_every > 0 && i % row.pause_every == 0) {
      paused.push_back(id);
    }
    if (row.stagger_every > 0 &&
        i % row.stagger_every == row.stagger_every - 1) {
      rig.sched->RunCycle();
    }
  }
  rig.sched->RunCycles(30);
  if (row.fail) {
    for (StreamId id : paused) ASSERT_TRUE(rig.sched->PauseStream(id).ok());
    rig.sched->OnDiskFailed(1, /*mid_cycle=*/true);
    rig.sched->RunCycles(30);
    rig.sched->OnDiskRepaired(1);
    for (StreamId id : paused) ASSERT_TRUE(rig.sched->ResumeStream(id).ok());
  }
  rig.sched->RunCycles(10);

  const SchedulerMetrics& m = rig.sched->metrics();
  EXPECT_EQ(m.cycles, row.want.cycles);
  EXPECT_EQ(m.data_reads, row.want.data_reads);
  EXPECT_EQ(m.parity_reads, row.want.parity_reads);
  EXPECT_EQ(m.failed_reads, row.want.failed_reads);
  EXPECT_EQ(m.dropped_reads, row.want.dropped_reads);
  EXPECT_EQ(m.tracks_delivered, row.want.tracks_delivered);
  EXPECT_EQ(m.hiccups, row.want.hiccups);
  EXPECT_EQ(m.reconstructed, row.want.reconstructed);
  EXPECT_EQ(m.terminated_streams, 0);
  EXPECT_EQ(m.degradation_events, row.want.degradation_events);
  EXPECT_EQ(m.shift_cascades, row.want.shift_cascades);
  EXPECT_EQ(m.max_shift_depth, row.want.max_shift_depth);
  EXPECT_EQ(rig.sched->buffer_pool().peak_in_use(), row.want_buffer_peak);
}

TEST(GoldenMetricsTest, FullFarmRunsMatchPreRewriteMetrics) {
  for (const GoldenRow& row : GoldenRows()) ExpectRowMatches(row);
}

TEST(GoldenMetricsTest, SerialScheduleRowsMatch) {
  for (const GoldenRow& row : SerialScheduleRows()) ExpectRowMatches(row);
}

TEST(GoldenMetricsTest, PausedStreamRowsMatch) {
  for (const GoldenRow& row : PausedStreamRows()) ExpectRowMatches(row);
}

}  // namespace
}  // namespace ftms
