#include "qos/run_report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

// The Chrome timeline contract, pinned like the Markdown one: one
// instant per journal event, one span per degraded transition and per
// rebuild, on simulated microseconds.
constexpr char kDrillChrome[] = R"({
"displayTimeUnit": "ms",
"otherData": {"clock": "sim_us"},
"traceEvents": [
{"name": "process_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 0, "ts": 0, "args": {"name": "SR run 1"}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 0, "ts": 0, "args": {"name": "journal"}},
{"name": "disk_failed", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6400000, "args": {"cycle": 8, "disk": 0, "cluster": 0, "value": 1}},
{"name": "degraded_transition_start", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6400000, "args": {"cycle": 8, "disk": -1, "cluster": 0, "value": 4}},
{"name": "degraded_transition_end", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 10400000, "args": {"cycle": 12, "disk": -1, "cluster": 0, "value": 0}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "degraded_transition cluster 0"}},
{"name": "degraded_transition", "cat": "degraded_transition", "ph": "X", "pid": 1, "tid": 1, "ts": 6400000, "dur": 4000000, "args": {"cluster": 0, "start_cycle": 8, "end_cycle": 12}},
{"name": "rebuild_start", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 10400000, "args": {"cycle": 13, "disk": 0, "cluster": 0, "value": 50}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 11200000, "args": {"cycle": 14, "disk": 0, "cluster": 0, "value": 76}},
{"name": "disk_repaired", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 12000000, "args": {"cycle": 15, "disk": 0, "cluster": 0, "value": 0}},
{"name": "rebuild_done", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 12000000, "args": {"cycle": 15, "disk": 0, "cluster": 0, "value": 2}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 2, "ts": 0, "args": {"name": "rebuild disk 0"}},
{"name": "rebuild", "cat": "rebuild", "ph": "X", "pid": 1, "tid": 2, "ts": 10400000, "dur": 1600000, "args": {"disk": 0, "start_cycle": 13, "end_cycle": 15}}
]
}
)";

TEST(RunReportTest, GoldenChromeForDrillJournal) {
  const std::string path = WriteTempFile("golden_chrome.jsonl", kDrillJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RenderRunReportChrome(*report), kDrillChrome);
}

// The two transitions overlap, so the second takes a second track.
constexpr char kDualFailureChrome[] = R"({
"displayTimeUnit": "ms",
"otherData": {"clock": "sim_us"},
"traceEvents": [
{"name": "process_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 0, "ts": 0, "args": {"name": "SR2 run 1"}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 0, "ts": 0, "args": {"name": "journal"}},
{"name": "disk_failed", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 3200000, "args": {"cycle": 12, "disk": 0, "cluster": 0, "value": 1}},
{"name": "degraded_transition_start", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 3200000, "args": {"cycle": 12, "disk": -1, "cluster": 0, "value": 4}},
{"name": "disk_failed", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 3466666, "args": {"cycle": 13, "disk": 1, "cluster": 0, "value": 1}},
{"name": "degraded_transition_start", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 3466666, "args": {"cycle": 13, "disk": -1, "cluster": 0, "value": 4}},
{"name": "degraded_transition_end", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 4533333, "args": {"cycle": 16, "disk": -1, "cluster": 0, "value": 0}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "degraded_transition cluster 0"}},
{"name": "degraded_transition", "cat": "degraded_transition", "ph": "X", "pid": 1, "tid": 1, "ts": 3200000, "dur": 1333333, "args": {"cluster": 0, "start_cycle": 12, "end_cycle": 16}},
{"name": "degraded_transition_end", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 4800000, "args": {"cycle": 17, "disk": -1, "cluster": 0, "value": 0}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 2, "ts": 0, "args": {"name": "degraded_transition cluster 0 #2"}},
{"name": "degraded_transition", "cat": "degraded_transition", "ph": "X", "pid": 1, "tid": 2, "ts": 3466666, "dur": 1333334, "args": {"cluster": 0, "start_cycle": 13, "end_cycle": 17}},
{"name": "rebuild_start", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 4800000, "args": {"cycle": 18, "disk": 0, "cluster": 0, "value": 50}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 5333333, "args": {"cycle": 20, "disk": 0, "cluster": 0, "value": 48}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 5600000, "args": {"cycle": 21, "disk": 0, "cluster": 0, "value": 72}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 5866666, "args": {"cycle": 22, "disk": 0, "cluster": 0, "value": 96}},
{"name": "disk_repaired", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6133333, "args": {"cycle": 23, "disk": 0, "cluster": 0, "value": 0}},
{"name": "rebuild_done", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6133333, "args": {"cycle": 23, "disk": 0, "cluster": 0, "value": 5}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 3, "ts": 0, "args": {"name": "rebuild disk 0"}},
{"name": "rebuild", "cat": "rebuild", "ph": "X", "pid": 1, "tid": 3, "ts": 4800000, "dur": 1333333, "args": {"disk": 0, "start_cycle": 18, "end_cycle": 23}},
{"name": "rebuild_start", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6133333, "args": {"cycle": 23, "disk": 1, "cluster": 0, "value": 50}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6666666, "args": {"cycle": 25, "disk": 1, "cluster": 0, "value": 48}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 6933333, "args": {"cycle": 26, "disk": 1, "cluster": 0, "value": 72}},
{"name": "rebuild_progress", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 7200000, "args": {"cycle": 27, "disk": 1, "cluster": 0, "value": 96}},
{"name": "disk_repaired", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 7466666, "args": {"cycle": 28, "disk": 1, "cluster": 0, "value": 0}},
{"name": "rebuild_done", "cat": "journal", "ph": "i", "pid": 1, "tid": 0, "ts": 7466666, "args": {"cycle": 28, "disk": 1, "cluster": 0, "value": 5}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "pid": 1, "tid": 4, "ts": 0, "args": {"name": "rebuild disk 1"}},
{"name": "rebuild", "cat": "rebuild", "ph": "X", "pid": 1, "tid": 4, "ts": 6133333, "dur": 1333333, "args": {"disk": 1, "start_cycle": 23, "end_cycle": 28}}
]
}
)";

TEST(RunReportTest, GoldenChromeForDualFailureDrill) {
  const std::string path =
      WriteTempFile("golden_chrome_sr2.jsonl", kDualFailureJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RenderRunReportChrome(*report), kDualFailureChrome);
}

// A recorded NC-2 double-failure drill (`ftms qos nc2`): cluster 0's two
// degraded transitions run from cycle 8 to 13 and from 9 to 14.
constexpr char kNc2Journal[] =
    R"({"kind":"disk_failed","scheme":"NC2","sim_us":2133333,"cycle":8,"disk":0,"cluster":0,"stream":-1,"value":1}
{"kind":"degraded_transition_start","scheme":"NC2","sim_us":2133333,"cycle":8,"disk":-1,"cluster":0,"stream":-1,"value":5}
{"kind":"disk_failed","scheme":"NC2","sim_us":2400000,"cycle":9,"disk":1,"cluster":0,"stream":-1,"value":1}
{"kind":"degraded_transition_start","scheme":"NC2","sim_us":2400000,"cycle":9,"disk":-1,"cluster":0,"stream":-1,"value":5}
{"kind":"degraded_transition_end","scheme":"NC2","sim_us":3733333,"cycle":13,"disk":-1,"cluster":0,"stream":-1,"value":0}
{"kind":"degraded_transition_end","scheme":"NC2","sim_us":4000000,"cycle":14,"disk":-1,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_start","scheme":"NC2","sim_us":4000000,"cycle":15,"disk":0,"cluster":0,"stream":-1,"value":50}
{"kind":"rebuild_progress","scheme":"NC2","sim_us":4533333,"cycle":17,"disk":0,"cluster":0,"stream":-1,"value":46}
{"kind":"rebuild_progress","scheme":"NC2","sim_us":4800000,"cycle":18,"disk":0,"cluster":0,"stream":-1,"value":70}
{"kind":"rebuild_progress","scheme":"NC2","sim_us":5066666,"cycle":19,"disk":0,"cluster":0,"stream":-1,"value":90}
{"kind":"disk_repaired","scheme":"NC2","sim_us":5333333,"cycle":20,"disk":0,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_done","scheme":"NC2","sim_us":5333333,"cycle":20,"disk":0,"cluster":0,"stream":-1,"value":5}
{"kind":"rebuild_start","scheme":"NC2","sim_us":5333333,"cycle":20,"disk":1,"cluster":0,"stream":-1,"value":50}
{"kind":"rebuild_progress","scheme":"NC2","sim_us":5866666,"cycle":22,"disk":1,"cluster":0,"stream":-1,"value":44}
{"kind":"rebuild_progress","scheme":"NC2","sim_us":6133333,"cycle":23,"disk":1,"cluster":0,"stream":-1,"value":66}
{"kind":"rebuild_progress","scheme":"NC2","sim_us":6400000,"cycle":24,"disk":1,"cluster":0,"stream":-1,"value":88}
{"kind":"disk_repaired","scheme":"NC2","sim_us":6666666,"cycle":25,"disk":1,"cluster":0,"stream":-1,"value":0}
{"kind":"rebuild_done","scheme":"NC2","sim_us":6666666,"cycle":25,"disk":1,"cluster":0,"stream":-1,"value":5}
)";

// A journal cut by its ring cap while two IB rigs appended to it: the
// first rig's transition start was evicted, the second rig stopped in the
// middle of its transition and of its rebuild, and the footer counts the
// evicted events.
constexpr char kTruncatedTwoRigJournal[] =
    R"({"kind":"degraded_transition_end","scheme":"IB","sim_us":38400000,"cycle":35,"disk":-1,"cluster":0,"stream":-1,"value":0}
{"kind":"hiccups","scheme":"IB","sim_us":40000000,"cycle":36,"disk":-1,"cluster":-1,"stream":-1,"value":3}
{"kind":"disk_repaired","scheme":"IB","sim_us":64000000,"cycle":60,"disk":1,"cluster":0,"stream":-1,"value":0}
{"kind":"disk_failed","scheme":"IB","sim_us":32000000,"cycle":30,"disk":1,"cluster":0,"stream":-1,"value":0}
{"kind":"degraded_transition_start","scheme":"IB","sim_us":32000000,"cycle":30,"disk":-1,"cluster":0,"stream":-1,"value":5}
{"kind":"rebuild_start","scheme":"IB","sim_us":33066666,"cycle":31,"disk":1,"cluster":0,"stream":-1,"value":50}
{"kind":"hiccups","scheme":"IB","sim_us":34133333,"cycle":32,"disk":-1,"cluster":-1,"stream":-1,"value":1}
{"kind":"journal_dropped","scheme":"sim","sim_us":34133333,"cycle":-1,"disk":-1,"cluster":-1,"stream":-1,"value":7}
)";

// A span the journal implies: `name` in process `pid`, from `ts` for
// `dur` simulated microseconds.
struct ExpectedSpan {
  std::string name;
  int64_t pid = 0;
  int64_t ts = 0;
  int64_t dur = 0;
  friend auto operator<=>(const ExpectedSpan&, const ExpectedSpan&) = default;
};

struct ChromeCase {
  const char* name;
  const char* journal;
  int64_t events;
  std::vector<std::string> processes;  // by pid, from 1
  std::vector<ExpectedSpan> spans;
};

// Every journal event is one instant; every transition and rebuild pair
// is exactly one span whose ts and dur are the journal's sim_us; no two
// spans on one track partially overlap.
TEST(RunReportTest, ChromeSpansMatchTheJournalPairs) {
  const ChromeCase cases[] = {
      {"drill", kDrillJournal, 7, {"SR run 1"},
       {{"degraded_transition", 1, 6400000, 4000000},
        {"rebuild", 1, 10400000, 1600000}}},
      {"sr2", kDualFailureJournal, 18, {"SR2 run 1"},
       {{"degraded_transition", 1, 3200000, 1333333},
        {"degraded_transition", 1, 3466666, 1333334},
        {"rebuild", 1, 4800000, 1333333},
        {"rebuild", 1, 6133333, 1333333}}},
      {"nc2", kNc2Journal, 18, {"NC2 run 1"},
       {{"degraded_transition", 1, 2133333, 1600000},
        {"degraded_transition", 1, 2400000, 1600000},
        {"rebuild", 1, 4000000, 1333333},
        {"rebuild", 1, 5333333, 1333333}}},
      // The unmatched end stays an instant; the open transition and
      // rebuild close at IB run 2's last event, not at the footer.
      {"truncated", kTruncatedTwoRigJournal, 8,
       {"IB run 1", "IB run 2", "sim run 1"},
       {{"degraded_transition", 2, 32000000, 2133333},
        {"rebuild", 2, 33066666, 1066667}}},
  };
  for (const ChromeCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        WriteTempFile(std::string("chrome_") + c.name + ".jsonl", c.journal);
    const auto report = LoadRunReport(path, "", "");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const StatusOr<JsonValue> trace =
        JsonValue::Parse(RenderRunReportChrome(*report));
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    const JsonValue* events = trace->Find("traceEvents");
    ASSERT_NE(events, nullptr);

    int64_t instants = 0;
    std::vector<std::string> processes;
    std::vector<ExpectedSpan> spans;
    std::map<std::pair<int64_t, int64_t>,
             std::vector<std::pair<int64_t, int64_t>>>
        tracks;  // (pid, tid) -> [start, end)
    for (const JsonValue& e : events->items()) {
      const std::string& ph = e.Find("ph")->AsString();
      const int64_t pid = e.Find("pid")->AsInt();
      if (ph == "i") ++instants;
      if (ph == "M" && e.Find("name")->AsString() == "process_name") {
        ASSERT_EQ(pid, static_cast<int64_t>(processes.size()) + 1);
        processes.push_back(e.Find("args")->Find("name")->AsString());
      }
      if (ph == "X") {
        const int64_t ts = e.Find("ts")->AsInt();
        const int64_t dur = e.Find("dur")->AsInt();
        spans.push_back({e.Find("name")->AsString(), pid, ts, dur});
        tracks[{pid, e.Find("tid")->AsInt()}].emplace_back(ts, ts + dur);
      }
    }
    EXPECT_EQ(instants, c.events);
    EXPECT_EQ(processes, c.processes);
    std::vector<ExpectedSpan> want = c.spans;
    std::sort(want.begin(), want.end());
    std::sort(spans.begin(), spans.end());
    EXPECT_EQ(spans, want);
    for (auto& [track, list] : tracks) {
      std::sort(list.begin(), list.end());
      std::vector<int64_t> open;  // ends of the enclosing spans
      for (const auto& [start, end] : list) {
        while (!open.empty() && start >= open.back()) open.pop_back();
        EXPECT_TRUE(open.empty() || end <= open.back())
            << "partial overlap on track " << track.first << "/"
            << track.second;
        open.push_back(end);
      }
    }
  }
}

// The ring-cap footer renders as an instant of its own "sim" process,
// carrying the evicted count.
TEST(RunReportTest, ChromeKeepsTheJournalDroppedFooter) {
  const std::string path =
      WriteTempFile("chrome_footer.jsonl", kTruncatedTwoRigJournal);
  const auto report = LoadRunReport(path, "", "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(RenderRunReportChrome(*report).find(
                R"({"name": "journal_dropped", "cat": "journal", "ph": "i", )"
                R"("pid": 3, "tid": 0, "ts": 34133333, "args": )"
                R"({"cycle": -1, "disk": -1, "cluster": -1, "value": 7}})"),
            std::string::npos);
}

// With a time series loaded, every series is a counter track of one last
// process, one sample per recorded point.
TEST(RunReportTest, ChromeRendersEverySeriesAsACounterTrack) {
  const std::string journal = WriteTempFile("chrome_ts.jsonl", kDrillJournal);
  const std::string ts = WriteTempFile(
      "chrome_ts.json",
      "{\"series\": {"
      "\"rebuild.SR.0.progress\": {\"stride\": 1, \"t\": [11200000, "
      "12000000], \"v\": [0.76, 1]}, "
      "\"sched.SR.0.active_streams\": {\"stride\": 2, \"t\": [800000, "
      "2400000, 4000000], \"v\": [4, 4, 3]}}}\n");
  const auto report = LoadRunReport(journal, "", ts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string chrome = RenderRunReportChrome(*report);
  ASSERT_TRUE(JsonValue::Parse(chrome).ok());
  EXPECT_NE(chrome.find(R"({"name": "process_name", "cat": "__metadata", )"
                        R"("ph": "M", "pid": 2, "tid": 0, "ts": 0, )"
                        R"("args": {"name": "time series"}})"),
            std::string::npos);
  for (const char* sample :
       {R"("rebuild.SR.0.progress", "cat": "series", "ph": "C", "pid": 2, )"
        R"("tid": 0, "ts": 11200000, "args": {"value": 0.76}})",
        R"("rebuild.SR.0.progress", "cat": "series", "ph": "C", "pid": 2, )"
        R"("tid": 0, "ts": 12000000, "args": {"value": 1}})",
        R"("sched.SR.0.active_streams", "cat": "series", "ph": "C", )"
        R"("pid": 2, "tid": 0, "ts": 4000000, "args": {"value": 3}})"}) {
    EXPECT_NE(chrome.find(sample), std::string::npos) << sample;
  }
  size_t samples = 0;
  for (size_t at = chrome.find("\"ph\": \"C\""); at != std::string::npos;
       at = chrome.find("\"ph\": \"C\"", at + 1)) {
    ++samples;
  }
  EXPECT_EQ(samples, 5u);
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

TEST(RunReportTest, OutOfRangeIntegerFieldIsAnError) {
  const std::string path = WriteTempFile(
      "huge.jsonl",
      "{\"kind\":\"hiccups\",\"sim_us\":5}\n"
      "{\"kind\":\"hiccups\",\"sim_us\":1e300,\"value\":1}\n");
  const auto report = LoadRunReport(path, "", "");
  ASSERT_FALSE(report.ok());
  // The error names the line and the field.
  const std::string error = report.status().ToString();
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  EXPECT_NE(error.find("sim_us"), std::string::npos) << error;
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
