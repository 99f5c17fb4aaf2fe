// End-to-end instrumentation test: an instrumented failure + degraded +
// rebuild run publishes a complete, correctly-attributed picture into a
// private MetricsRegistry and Tracer, and does so deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "layout/schemes.h"
#include "server/rebuild_manager.h"
#include "telemetry/telemetry_server.h"
#include "tests/sched_test_util.h"
#include "util/metrics.h"
#include "util/trace_event.h"

namespace ftms {
namespace {

constexpr int kFailedDisk = 1;  // cluster 0 with 10 disks, C = 5

// Runs the canonical scenario: warm-up, disk failure, degraded service,
// rebuild to completion, cooldown. Returns the rig for extra checks.
SchedRig RunFailureRebuildScenario(Scheme scheme, MetricsRegistry* registry,
                                   Tracer* tracer) {
  RigOptions options;
  options.metrics = registry;
  options.tracer = tracer;
  // 50-track disks so the idle-slot rebuild finishes quickly even for the
  // short-cycle schemes (SG/NC have ~12 rebuild slots per cycle).
  options.disk_capacity_mb = 2.5;
  SchedRig rig = MakeRig(scheme, 5, 10, options);
  for (int i = 0; i < 2; ++i) {
    rig.sched->AddStream(TestObject(i, 60)).value();
  }
  for (int i = 0; i < 3; ++i) rig.sched->RunCycle();
  rig.sched->OnDiskFailed(kFailedDisk, false);
  for (int i = 0; i < 6; ++i) rig.sched->RunCycle();

  RebuildManager rebuild(rig.disks.get(), rig.layout.get(), rig.sched.get());
  EXPECT_TRUE(rebuild.StartRebuild(kFailedDisk).ok());
  int guard = 0;
  while (rebuild.Active() && ++guard < 500) {
    rig.sched->RunCycle();
    rebuild.AdvanceOneCycle();
  }
  EXPECT_FALSE(rebuild.Active());
  EXPECT_EQ(rebuild.rebuilds_completed(), 1);
  for (int i = 0; i < 2; ++i) rig.sched->RunCycle();
  return rig;
}

// Registry text with timing-dependent series (wall-clock histograms)
// removed; everything left is the deterministic contract.
std::string DeterministicText(const MetricsRegistry& registry) {
  std::istringstream in(registry.PrometheusText());
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("wall") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

class ObservabilityTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ObservabilityTest, FailureRebuildRunIsFullyInstrumented) {
  const Scheme scheme = GetParam();
  MetricsRegistry registry;
  Tracer tracer(4096);
  SchedRig rig = RunFailureRebuildScenario(scheme, &registry, &tracer);
  const std::string abbrev(SchemeAbbrev(scheme));

  // Per-disk utilization series covers EVERY disk of the farm, and the
  // farm did real work.
  int64_t busy_total = 0;
  for (int d = 0; d < rig.disks->num_disks(); ++d) {
    const Counter* c = registry.FindCounter(
        LabeledName("ftms_sched_disk_busy_slots_total",
                    {{"scheme", abbrev}, {"disk", std::to_string(d)}}));
    ASSERT_NE(c, nullptr) << "no utilization series for disk " << d;
    busy_total += c->value();
  }
  EXPECT_GT(busy_total, 0);

  // Degraded reads are attributed to the affected cluster ONLY.
  const int affected = rig.disks->ClusterOf(kFailedDisk);
  int64_t degraded_affected = 0;
  for (int cl = 0; cl < rig.layout->num_clusters(); ++cl) {
    const Counter* c = registry.FindCounter(
        LabeledName("ftms_sched_degraded_reads_total",
                    {{"scheme", abbrev}, {"cluster", std::to_string(cl)}}));
    ASSERT_NE(c, nullptr);
    if (cl == affected) {
      degraded_affected = c->value();
    } else {
      EXPECT_EQ(c->value(), 0) << "degraded reads leaked to cluster " << cl;
    }
  }
  EXPECT_GT(degraded_affected, 0);

  // Reconstructions happened and the scheduler's own ledger agrees.
  int64_t reconstructed = 0;
  for (int cl = 0; cl < rig.layout->num_clusters(); ++cl) {
    const Counter* c = registry.FindCounter(
        LabeledName("ftms_sched_reconstructions_total",
                    {{"scheme", abbrev}, {"cluster", std::to_string(cl)}}));
    ASSERT_NE(c, nullptr);
    reconstructed += c->value();
  }
  EXPECT_EQ(reconstructed, rig.sched->metrics().reconstructed);
  EXPECT_GT(reconstructed, 0);

  // Rebuild metrics: one completed rebuild, full track count, progress 1.
  const Counter* completed = registry.FindCounter(
      LabeledName("ftms_rebuilds_completed_total", {{"scheme", abbrev}}));
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value(), 1);
  const Counter* tracks = registry.FindCounter(
      LabeledName("ftms_rebuild_tracks_rebuilt_total", {{"scheme", abbrev}}));
  ASSERT_NE(tracks, nullptr);
  EXPECT_EQ(tracks->value(), rig.disks->params().TracksPerDisk());
  const Gauge* progress = registry.FindGauge(
      LabeledName("ftms_rebuild_progress_ratio", {{"scheme", abbrev}}));
  ASSERT_NE(progress, nullptr);
  EXPECT_DOUBLE_EQ(progress->value(), 1.0);

  // The timeline: cycle spans, the failure instant, the rebuild span.
  const auto events = tracer.Snapshot();
  ASSERT_FALSE(events.empty());
  int cycle_spans = 0;
  bool saw_failure = false, saw_rebuild_span = false, saw_transition = false;
  for (const auto& e : events) {
    const std::string name(e.name);
    if (name == "cycle" && e.phase == 'X') ++cycle_spans;
    if (name == "disk_failed" && e.phase == 'i') saw_failure = true;
    if (name == "degraded_transition") saw_transition = true;
    if (name == "rebuild" && e.phase == 'X') saw_rebuild_span = true;
  }
  EXPECT_EQ(cycle_spans, rig.sched->cycle());
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_transition);
  EXPECT_TRUE(saw_rebuild_span);

  // Monotone span nesting per track: sorted by start, every span either
  // starts at-or-after the previous span's end or nests inside it.
  std::map<int32_t, std::vector<std::pair<int64_t, int64_t>>> spans;
  for (const auto& e : events) {
    if (e.phase == 'X') {
      spans[e.tid].emplace_back(e.ts_us, e.ts_us + e.dur_us);
    }
  }
  EXPECT_GE(spans.size(), 2u);  // scheduler track + rebuild track
  for (auto& [tid, list] : spans) {
    std::sort(list.begin(), list.end());
    std::vector<int64_t> open;  // stack of enclosing span ends
    for (const auto& [start, end] : list) {
      while (!open.empty() && start >= open.back()) open.pop_back();
      EXPECT_TRUE(open.empty() || end <= open.back())
          << "partial overlap on track " << tid;
      open.push_back(end);
    }
  }

  // The Chrome export is non-trivial and structurally sound.
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"disk_failed\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_P(ObservabilityTest, MetricsAreRepeatable) {
  MetricsRegistry first, second;
  RunFailureRebuildScenario(GetParam(), &first, nullptr);
  RunFailureRebuildScenario(GetParam(), &second, nullptr);
  EXPECT_EQ(DeterministicText(first), DeterministicText(second));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ObservabilityTest,
                         ::testing::Values(Scheme::kStreamingRaid,
                                           Scheme::kStaggeredGroup,
                                           Scheme::kNonClustered),
                         [](const auto& info) {
                           return std::string(SchemeAbbrev(info.param));
                         });

TEST(PrometheusExpositionTest, HistogramSummaryQuantileGauges) {
  // Pins the exposition format for histogram quantile summaries: p50 /
  // p90 / p99 are emitted as separate gauge families AFTER the main
  // family list, each with its own # TYPE line — never as extra samples
  // inside the histogram family (a duplicate-TYPE violation scrapers
  // reject). One value per bucket of [0, 10) x 10 makes the quantiles
  // exact: p50 = 5, p90 = 9, p99 = 9.9.
  MetricsRegistry registry;
  HistogramCell* h = registry.GetHistogram("ftms_obs_lat", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h->Add(i + 0.5);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE ftms_obs_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("ftms_obs_lat_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("ftms_obs_lat_count 10"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ftms_obs_lat_p50 gauge\nftms_obs_lat_p50 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ftms_obs_lat_p90 gauge\nftms_obs_lat_p90 9\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE ftms_obs_lat_p99 gauge\nftms_obs_lat_p99 9.9\n"),
      std::string::npos);
  // The quantile gauges follow the histogram family block.
  EXPECT_GT(text.find("ftms_obs_lat_p50"), text.find("ftms_obs_lat_count"));
}

TEST(PrometheusExpositionTest, HelpLinesPrecedeTypeLines) {
  // `# HELP` is emitted for every cell registered with a help string,
  // immediately before the family's `# TYPE` line, with the family name
  // (labels stripped) on the HELP line.
  MetricsRegistry registry;
  registry.GetCounter("ftms_obs_help_total", "Things counted for the test")
      ->Add(3);
  registry
      .GetGauge(LabeledName("ftms_obs_help_g", {{"scheme", "SR"}}),
                "A labeled gauge keeps help on the bare family name")
      ->Set(1.5);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(
      text.find("# HELP ftms_obs_help_total Things counted for the test\n"
                "# TYPE ftms_obs_help_total counter"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "# HELP ftms_obs_help_g A labeled gauge keeps help on the bare "
          "family name\n# TYPE ftms_obs_help_g gauge"),
      std::string::npos);
}

TEST(PrometheusExpositionTest, ScenarioRegistryCarriesHelpText) {
  // The real registration sites thread help strings through: a full
  // failure + rebuild scenario's registry documents its key families.
  MetricsRegistry registry;
  RunFailureRebuildScenario(Scheme::kStreamingRaid, &registry, nullptr);
  const std::string text = registry.PrometheusText();
  for (const char* family :
       {"ftms_rebuild_tracks_rebuilt_total", "ftms_rebuilds_completed_total",
        "ftms_rebuild_progress_ratio", "ftms_sched_hiccups_total"}) {
    EXPECT_NE(text.find(std::string("# HELP ") + family + " "),
              std::string::npos)
        << "missing # HELP for " << family;
  }
}

TEST(PrometheusExpositionTest, ScrapeContentTypeIsExpositionV0_0_4) {
  // The telemetry exporter must label /metrics with the exposition
  // format version; Prometheus rejects bare text/plain in strict mode.
  EXPECT_STREQ(kPrometheusContentType,
               "text/plain; version=0.0.4; charset=utf-8");
}

TEST(PrometheusExpositionTest, LabeledHistogramQuantilesKeepLabels) {
  MetricsRegistry registry;
  registry
      .GetHistogram(LabeledName("ftms_obs_l", {{"scheme", "SR"}}), 0.0, 4.0,
                    4)
      ->Add(1.5);
  const std::string text = registry.PrometheusText();
  // The suffix lands on the family name, before the label set.
  EXPECT_NE(text.find("# TYPE ftms_obs_l_p50 gauge"), std::string::npos);
  EXPECT_NE(text.find("ftms_obs_l_p50{scheme=\"SR\"} "), std::string::npos);
}

TEST(ObservabilityOffTest, UninstrumentedSchedulerTouchesNoGlobalState) {
  // With no config override and the global sinks disabled, a full run
  // registers nothing anywhere.
  ASSERT_EQ(MetricsRegistry::GlobalIfEnabled(), nullptr);
  ASSERT_EQ(Tracer::GlobalIfEnabled(), nullptr);
  const size_t global_before = MetricsRegistry::Global().size();
  SchedRig rig = MakeRig(Scheme::kStreamingRaid, 5, 10);
  rig.sched->AddStream(TestObject(0, 16)).value();
  for (int i = 0; i < 4; ++i) rig.sched->RunCycle();
  EXPECT_EQ(MetricsRegistry::Global().size(), global_before);
  EXPECT_EQ(rig.sched->metrics_registry(), nullptr);
  EXPECT_EQ(rig.sched->tracer(), nullptr);
  EXPECT_EQ(rig.sched->trace_tid(), -1);
}

}  // namespace
}  // namespace ftms
