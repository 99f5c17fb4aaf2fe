#include "util/timeseries.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tests/sched_test_util.h"
#include "util/metrics.h"

namespace ftms {
namespace {

TEST(TimeSeriesTest, AppendKeepsPointsInOrder) {
  TimeSeriesRecorder rec(/*capacity=*/16);
  const int id = rec.DefineSeries("s");
  for (int i = 0; i < 10; ++i) rec.Append(id, i * 100, i * 1.5);
  const auto pts = rec.SeriesPoints("s");
  ASSERT_EQ(pts.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pts[i].t_us, i * 100);
    EXPECT_EQ(pts[i].v, i * 1.5);
  }
  EXPECT_EQ(rec.SeriesStride("s"), 1);
}

TEST(TimeSeriesTest, DefineSeriesIsIdempotent) {
  TimeSeriesRecorder rec(8);
  EXPECT_EQ(rec.DefineSeries("a"), rec.DefineSeries("a"));
  EXPECT_NE(rec.DefineSeries("a"), rec.DefineSeries("b"));
  EXPECT_EQ(rec.num_series(), 2u);
}

TEST(TimeSeriesTest, DownsamplingBoundsCapacity) {
  constexpr size_t kCapacity = 8;
  TimeSeriesRecorder rec(kCapacity);
  const int id = rec.DefineSeries("ring");
  // Far more appends than capacity: the ring must never exceed capacity
  // and the stride must double at every decimation.
  for (int i = 0; i < 1000; ++i) {
    rec.Append(id, i * 10, static_cast<double>(i));
    EXPECT_LE(rec.SeriesPoints("ring").size(), kCapacity)
        << "after append " << i;
  }
  const int64_t stride = rec.SeriesStride("ring");
  EXPECT_GT(stride, 1);
  // Stride is a power of two (doubles on every fold).
  EXPECT_EQ(stride & (stride - 1), 0);
}

TEST(TimeSeriesTest, DownsampledPointsStayMonotoneAndUniform) {
  TimeSeriesRecorder rec(8);
  const int id = rec.DefineSeries("ring");
  for (int i = 0; i < 100; ++i) rec.Append(id, i * 10, static_cast<double>(i));
  const auto pts = rec.SeriesPoints("ring");
  const int64_t stride = rec.SeriesStride("ring");
  ASSERT_GE(pts.size(), 2u);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].t_us, pts[i - 1].t_us);
    // Decimation keeps a uniform cadence: consecutive survivors are
    // exactly stride appends apart.
    EXPECT_EQ(pts[i].t_us - pts[i - 1].t_us, stride * 10);
  }
  // Survivors are real appended points, value matching their timestamp.
  for (const auto& p : pts) {
    EXPECT_EQ(p.v, static_cast<double>(p.t_us / 10));
  }
}

TEST(TimeSeriesTest, PullModelCounterRateAndGauge) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reads_total", "reads");
  Gauge* g = registry.GetGauge("depth", "queue depth");
  TimeSeriesRecorder rec(64);
  rec.AddCounterSeries("reads_rate", c, /*as_rate=*/true);
  rec.AddGaugeSeries("depth", g);

  c->Add(100);
  g->Set(7);
  rec.Sample(1'000'000);  // first sample: rate records 0
  c->Add(50);
  g->Set(3);
  rec.Sample(2'000'000);  // +50 over 1 simulated second -> 50/s

  const auto rate = rec.SeriesPoints("reads_rate");
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_EQ(rate[0].v, 0);
  EXPECT_EQ(rate[1].v, 50);
  const auto depth = rec.SeriesPoints("depth");
  ASSERT_EQ(depth.size(), 2u);
  EXPECT_EQ(depth[0].v, 7);
  EXPECT_EQ(depth[1].v, 3);
}

TEST(TimeSeriesTest, SampleIsGatedPerTimestamp) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("v", "value");
  TimeSeriesRecorder rec(64);
  rec.AddGaugeSeries("v", g);
  rec.Sample(500);
  rec.Sample(500);  // duplicate sync point at the same simulated time
  EXPECT_EQ(rec.SeriesPoints("v").size(), 1u);
}

TEST(TimeSeriesTest, JsonAndCsvShapes) {
  TimeSeriesRecorder rec(8);
  const int id = rec.DefineSeries("b");
  rec.DefineSeries("a");  // defined second, but dumps sort by name
  rec.Append(id, 100, 1.5);
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
  EXPECT_NE(json.find("\"t\": [100]"), std::string::npos);
  EXPECT_NE(json.find("\"v\": [1.5]"), std::string::npos);
  const std::string csv = rec.ToCsv();
  EXPECT_NE(csv.find("series,t_us,value"), std::string::npos);
  EXPECT_NE(csv.find("b,100,1.5"), std::string::npos);
}

// The acceptance contract for the whole subsystem: a scheduler run's
// time-series dump is byte-identical from run to run, because every push
// happens at cycle end from the scheduler's counters. Series names carry
// a process-wide instance number (so rigs sharing one recorder stay
// distinct); normalize it out before comparing dumps from two rigs in
// this one process.
std::string RunAndDump() {
  TimeSeriesRecorder rec(/*capacity=*/256);
  RigOptions options;
  options.timeseries = &rec;
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 100, options);
  const int clusters = rig.layout->num_clusters();
  for (int i = 0; i < 1040; ++i) {
    rig.sched->AddStream(TestObject(i % clusters, 100000)).value();
  }
  rig.sched->RunCycles(20);
  rig.sched->OnDiskFailed(1, /*mid_cycle=*/true);
  rig.sched->RunCycles(20);
  rig.sched->OnDiskRepaired(1);
  rig.sched->RunCycles(10);

  std::string json = rec.ToJson();
  const std::string prefix = rig.sched->timeseries_prefix();
  for (size_t pos = json.find(prefix); pos != std::string::npos;
       pos = json.find(prefix, pos + 1)) {
    json.replace(pos, prefix.size(), "SR.X");
  }
  return json;
}

TEST(TimeSeriesTest, SchedulerDumpByteIdenticalAcrossRuns) {
  const std::string first = RunAndDump();
  const std::string second = RunAndDump();
  EXPECT_EQ(first, second);
  // And the run actually produced curves worth comparing.
  EXPECT_NE(first.find("degraded_reads"), std::string::npos);
  EXPECT_NE(first.find("buffer_in_use"), std::string::npos);
}

}  // namespace
}  // namespace ftms
