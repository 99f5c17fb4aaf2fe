#include "qos/run_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/json.h"

namespace ftms {
namespace {

// A recorded SR failure/rebuild drill (FTMS_QOS_OUT of `ftms qos sr 4`).
constexpr char kDrillJournal[] =
    R"({"kind":"disk_failed","scheme":"SR","sim_us":6400000,"cycle":8,"disk":0,"cluster":0,"stream":-1,"value":1}
{"kind":"degraded_transition_start","scheme":"SR","sim_us":6400000,"cycle":8,"disk":-1,"cluster":0,"stream":-1,"value":4}
{"kind":"degraded_transition_end","scheme":"SR","sim_us":10400000,"cycle":12,"disk":-1,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_start","scheme":"SR","sim_us":10400000,"cycle":13,"disk":0,"cluster":0,"stream":-1,"value":50}
{"kind":"rebuild_progress","scheme":"SR","sim_us":11200000,"cycle":14,"disk":0,"cluster":0,"stream":-1,"value":76}
{"kind":"disk_repaired","scheme":"SR","sim_us":12000000,"cycle":15,"disk":0,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_done","scheme":"SR","sim_us":12000000,"cycle":15,"disk":0,"cluster":0,"stream":-1,"value":2}
)";

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path =
      ::testing::TempDir() + "/run_report_test_" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

TEST(RunReportTest, LoadsDrillJournal) {
  const std::string path = WriteTempFile("drill.jsonl", kDrillJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->event_count, 7);
  EXPECT_EQ(report->horizon_us, 12000000);
  EXPECT_EQ(report->kind_counts.size(), 7u);
  ASSERT_EQ(report->rebuild.size(), 3u);
  EXPECT_EQ(report->rebuild[0].kind, "rebuild_start");
  EXPECT_EQ(report->rebuild[0].value, 50);
  EXPECT_EQ(report->rebuild[2].kind, "rebuild_done");
  EXPECT_TRUE(report->hiccups.empty());
  EXPECT_TRUE(report->slo_breaches.empty());
  EXPECT_FALSE(report->has_metrics);
  EXPECT_FALSE(report->has_timeseries);
}

// The golden output contract: `ftms report` on a recorded drill renders
// exactly this markdown. Any renderer change must update this test —
// the report is a published artifact, not debug output.
TEST(RunReportTest, GoldenMarkdownForDrillJournal) {
  const std::string path = WriteTempFile("golden.jsonl", kDrillJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::string expected = std::string("# FTMS run report\n\n") +
      "Journal: `" + path +
      "` \xE2\x80\x94 7 events, horizon 12.000 s simulated.\n"
      "\n"
      "## Journal events\n"
      "\n"
      "| kind | count |\n"
      "|---|---|\n"
      "| degraded_transition_end | 1 |\n"
      "| degraded_transition_start | 1 |\n"
      "| disk_failed | 1 |\n"
      "| disk_repaired | 1 |\n"
      "| rebuild_done | 1 |\n"
      "| rebuild_progress | 1 |\n"
      "| rebuild_start | 1 |\n"
      "\n"
      "## SLO burn\n"
      "\n"
      "No SLO breaches recorded.\n"
      "\n"
      "## Hiccup timeline\n"
      "\n"
      "No hiccups recorded.\n"
      "\n"
      "## Rebuild\n"
      "\n"
      "- t=10.400s rebuild_start tracks_total=50\n"
      "- t=11.200s rebuild_progress percent=76\n"
      "- t=12.000s rebuild_done cycles=2\n";
  EXPECT_EQ(RenderRunReportMarkdown(*report), expected);
}

// A recorded SR-2 dual-failure drill (`ftms qos sr2 4 16`): two disks of
// the same cluster fail one cycle apart — survivable only under dual
// parity — then rebuild back-to-back.
constexpr char kDualFailureJournal[] =
    R"({"kind":"disk_failed","scheme":"SR2","sim_us":3200000,"cycle":12,"disk":0,"cluster":0,"stream":-1,"value":1}
{"kind":"degraded_transition_start","scheme":"SR2","sim_us":3200000,"cycle":12,"disk":-1,"cluster":0,"stream":-1,"value":4}
{"kind":"disk_failed","scheme":"SR2","sim_us":3466666,"cycle":13,"disk":1,"cluster":0,"stream":-1,"value":1}
{"kind":"degraded_transition_start","scheme":"SR2","sim_us":3466666,"cycle":13,"disk":-1,"cluster":0,"stream":-1,"value":4}
{"kind":"degraded_transition_end","scheme":"SR2","sim_us":4533333,"cycle":16,"disk":-1,"cluster":0,"stream":-1,"value":0}
{"kind":"degraded_transition_end","scheme":"SR2","sim_us":4800000,"cycle":17,"disk":-1,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_start","scheme":"SR2","sim_us":4800000,"cycle":18,"disk":0,"cluster":0,"stream":-1,"value":50}
{"kind":"rebuild_progress","scheme":"SR2","sim_us":5333333,"cycle":20,"disk":0,"cluster":0,"stream":-1,"value":48}
{"kind":"rebuild_progress","scheme":"SR2","sim_us":5600000,"cycle":21,"disk":0,"cluster":0,"stream":-1,"value":72}
{"kind":"rebuild_progress","scheme":"SR2","sim_us":5866666,"cycle":22,"disk":0,"cluster":0,"stream":-1,"value":96}
{"kind":"disk_repaired","scheme":"SR2","sim_us":6133333,"cycle":23,"disk":0,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_done","scheme":"SR2","sim_us":6133333,"cycle":23,"disk":0,"cluster":0,"stream":-1,"value":5}
{"kind":"rebuild_start","scheme":"SR2","sim_us":6133333,"cycle":23,"disk":1,"cluster":0,"stream":-1,"value":50}
{"kind":"rebuild_progress","scheme":"SR2","sim_us":6666666,"cycle":25,"disk":1,"cluster":0,"stream":-1,"value":48}
{"kind":"rebuild_progress","scheme":"SR2","sim_us":6933333,"cycle":26,"disk":1,"cluster":0,"stream":-1,"value":72}
{"kind":"rebuild_progress","scheme":"SR2","sim_us":7200000,"cycle":27,"disk":1,"cluster":0,"stream":-1,"value":96}
{"kind":"disk_repaired","scheme":"SR2","sim_us":7466666,"cycle":28,"disk":1,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_done","scheme":"SR2","sim_us":7466666,"cycle":28,"disk":1,"cluster":0,"stream":-1,"value":5}
)";

TEST(RunReportTest, GoldenMarkdownForDualFailureDrill) {
  const std::string path =
      WriteTempFile("golden_sr2.jsonl", kDualFailureJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->event_count, 18);
  ASSERT_EQ(report->rebuild.size(), 10u);

  const std::string expected = std::string("# FTMS run report\n\n") +
      "Journal: `" + path +
      "` \xE2\x80\x94 18 events, horizon 7.467 s simulated.\n"
      "\n"
      "## Journal events\n"
      "\n"
      "| kind | count |\n"
      "|---|---|\n"
      "| degraded_transition_end | 2 |\n"
      "| degraded_transition_start | 2 |\n"
      "| disk_failed | 2 |\n"
      "| disk_repaired | 2 |\n"
      "| rebuild_done | 2 |\n"
      "| rebuild_progress | 6 |\n"
      "| rebuild_start | 2 |\n"
      "\n"
      "## SLO burn\n"
      "\n"
      "No SLO breaches recorded.\n"
      "\n"
      "## Hiccup timeline\n"
      "\n"
      "No hiccups recorded.\n"
      "\n"
      "## Rebuild\n"
      "\n"
      "- t=4.800s rebuild_start tracks_total=50\n"
      "- t=5.333s rebuild_progress percent=48\n"
      "- t=5.600s rebuild_progress percent=72\n"
      "- t=5.867s rebuild_progress percent=96\n"
      "- t=6.133s rebuild_done cycles=5\n"
      "- t=6.133s rebuild_start tracks_total=50\n"
      "- t=6.667s rebuild_progress percent=48\n"
      "- t=6.933s rebuild_progress percent=72\n"
      "- t=7.200s rebuild_progress percent=96\n"
      "- t=7.467s rebuild_done cycles=5\n";
  EXPECT_EQ(RenderRunReportMarkdown(*report), expected);
}

TEST(RunReportTest, JsonRenderIsStructured) {
  const std::string path = WriteTempFile("json.jsonl", kDrillJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = RenderRunReportJson(*report);
  EXPECT_NE(json.find("\"event_count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"horizon_us\": 12000000"), std::string::npos);
  EXPECT_NE(json.find("\"rebuild_done\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"rebuild_start\""), std::string::npos);
  // No optional inputs were given, so no optional blocks appear.
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(json.find("\"profile\""), std::string::npos);
  EXPECT_EQ(json.find("\"timeseries\""), std::string::npos);
}

// A kind holding control characters (escaped in the JSONL, as any JSON
// writer emits them) must come back out escaped: the JSON render parses
// and keeps the kind byte for byte.
TEST(RunReportTest, JsonRenderEscapesControlCharactersInKinds) {
  const std::string path = WriteTempFile(
      "odd_kind.jsonl",
      R"({"kind":"odd\tkind\n","scheme":"SR","sim_us":5,"cycle":1,)"
      R"("disk":-1,"cluster":-1,"stream":-1,"value":0})"
      "\n");
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const StatusOr<JsonValue> parsed =
      JsonValue::Parse(RenderRunReportJson(*report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->members().size(), 1u);
  EXPECT_EQ(events->members()[0].first, "odd\tkind\n");
  EXPECT_EQ(events->members()[0].second.AsInt(), 1);
}

TEST(RunReportTest, MissingJournalIsAnError) {
  const auto report =
      LoadRunReport("/nonexistent/run_report_test.jsonl", "", "");
  EXPECT_FALSE(report.ok());
}

TEST(RunReportTest, MalformedJournalLineIsAnError) {
  const std::string path =
      WriteTempFile("bad.jsonl", "{\"kind\":\"hiccups\"}\nnot json\n");
  const auto report = LoadRunReport(path, "", "");
  ASSERT_FALSE(report.ok());
  // The error names the offending line.
  EXPECT_NE(report.status().ToString().find(":2:"), std::string::npos)
      << report.status().ToString();
}

TEST(RunReportTest, JournalEventWithoutKindIsAnError) {
  const std::string path =
      WriteTempFile("nokind.jsonl", "{\"scheme\":\"SR\",\"sim_us\":1}\n");
  const auto report = LoadRunReport(path, "", "");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("kind"), std::string::npos);
}

TEST(RunReportTest, MetricsFileWithoutMetricsBlockIsAnError) {
  const std::string journal = WriteTempFile("j1.jsonl", kDrillJournal);
  const std::string metrics = WriteTempFile("m1.json", "{\"foo\": 1}\n");
  const auto report = LoadRunReport(journal, metrics, "");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("metrics"), std::string::npos);
}

TEST(RunReportTest, TimeSeriesFileWithoutSeriesIsAnError) {
  const std::string journal = WriteTempFile("j2.jsonl", kDrillJournal);
  const std::string ts = WriteTempFile("t1.json", "{\"schema\": 1}\n");
  const auto report = LoadRunReport(journal, "", ts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("series"), std::string::npos);
}

TEST(RunReportTest, MismatchedColumnsAreAnError) {
  const std::string journal = WriteTempFile("j3.jsonl", kDrillJournal);
  const std::string ts = WriteTempFile(
      "t2.json",
      "{\"series\": {\"x\": {\"stride\": 1, \"t\": [1, 2], \"v\": [0]}}}\n");
  const auto report = LoadRunReport(journal, "", ts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("mismatched"),
            std::string::npos);
}

TEST(RunReportTest, TimeSeriesCurvesFeedTheRenderer) {
  const std::string journal = WriteTempFile("j4.jsonl", kDrillJournal);
  const std::string ts = WriteTempFile(
      "t3.json",
      "{\"series\": {"
      "\"rebuild.SR.0.progress\": {\"stride\": 1, \"t\": [11200000, "
      "12000000], \"v\": [0.76, 1]}, "
      "\"qos.SR.0.slo_burn_max\": {\"stride\": 1, \"t\": [800000, "
      "1600000], \"v\": [0, 0.125]}}}\n");
  const auto report = LoadRunReport(journal, "", ts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->has_timeseries);
  ASSERT_EQ(report->series.size(), 2u);
  const std::string md = RenderRunReportMarkdown(*report);
  // Burn-rate and rebuild-progress series render as curves in their
  // sections, plus the summary table.
  EXPECT_NE(md.find("qos.SR.0.slo_burn_max"), std::string::npos);
  EXPECT_NE(md.find("rebuild.SR.0.progress"), std::string::npos);
  EXPECT_NE(md.find("## Time series"), std::string::npos);
  EXPECT_NE(md.find("- t=12.000s: 1"), std::string::npos);
}

}  // namespace
}  // namespace ftms
