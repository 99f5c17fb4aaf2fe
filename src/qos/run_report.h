#ifndef FTMS_QOS_RUN_REPORT_H_
#define FTMS_QOS_RUN_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ftms {

class EventJournal;
class MetricsRegistry;
class TimeSeriesRecorder;
class Tracer;

// Unified run report: one recorded run's QoS journal (JSONL), optionally
// joined with a bench/metrics snapshot (BENCH_*.json, schema >= 2) and a
// time-series dump (FTMS_TIMESERIES_OUT JSON). The loader is strict —
// malformed JSON, a journal line without a "kind", or a wrong top-level
// shape is an error, not a best-effort parse — because the report is the
// artifact operators act on.
struct RunReport {
  // One journal event on a timeline (hiccups, SLO breaches, rebuild).
  struct TimelineEvent {
    int64_t sim_us = 0;
    int64_t cycle = -1;
    int64_t value = 0;
    std::string kind;
    std::string scheme;
  };

  // One flattened profiler scope ("sched/cycle" under "sim/run" becomes
  // path "sim/run > sched/cycle").
  struct ProfileNode {
    std::string path;
    int depth = 0;
    int64_t count = 0;
    double wall_us = 0;
  };

  // One recorded time series, summarized.
  struct SeriesSummary {
    std::string name;
    size_t points = 0;
    int64_t stride = 1;
    int64_t t_first = 0;
    int64_t t_last = 0;
    double v_first = 0;
    double v_last = 0;
    double v_min = 0;
    double v_max = 0;
    // Full curve, kept for the rebuild/burn sections of the renderer.
    std::vector<std::pair<int64_t, double>> curve;
  };

  std::string journal_path;
  int64_t event_count = 0;
  int64_t horizon_us = 0;  // max sim_us across all events
  std::vector<std::pair<std::string, int64_t>> kind_counts;  // name-sorted

  std::vector<TimelineEvent> hiccups;       // kind == "hiccups"
  std::vector<TimelineEvent> slo_breaches;  // kind == "slo_breach"
  std::vector<TimelineEvent> rebuild;       // rebuild_{start,progress,done}

  // From the optional bench/metrics JSON.
  bool has_metrics = false;
  std::string bench_name;
  int64_t schema_version = 0;
  std::vector<std::pair<std::string, double>> metrics;  // "metrics" block
  std::vector<ProfileNode> profile;  // flattened "profile" tree, preorder

  // From the optional time-series JSON.
  bool has_timeseries = false;
  std::vector<SeriesSummary> series;  // name-sorted
};

// Loads a report. `journal_path` is required; pass "" for the optional
// inputs. Errors: unreadable files, malformed JSON, journal lines missing
// "kind", a metrics file without a "metrics" object, a time-series file
// without a "series" object.
StatusOr<RunReport> LoadRunReport(const std::string& journal_path,
                                  const std::string& metrics_path,
                                  const std::string& timeseries_path);

// Renderers. Markdown is the human artifact (SLO burn, hiccup timeline,
// rebuild curve, per-subsystem time split); JSON is the machine one. Both
// are deterministic for identical inputs.
std::string RenderRunReportMarkdown(const RunReport& report);
std::string RenderRunReportJson(const RunReport& report);

// The sinks a finished run may dump; a null sink (or profile = false) is
// skipped.
struct RunDumps {
  const MetricsRegistry* metrics = nullptr;
  const Tracer* tracer = nullptr;
  const EventJournal* journal = nullptr;
  bool profile = false;  // the global profiler, folded before it is written
  const TimeSeriesRecorder* timeseries = nullptr;
};

// Writes each sink to the file its environment variable names, in this
// order: FTMS_METRICS_OUT (Prometheus text), FTMS_TRACE_OUT (Chrome
// trace), FTMS_QOS_OUT (journal JSONL), FTMS_PROF_OUT (profile tree),
// FTMS_TIMESERIES_OUT and FTMS_TIMESERIES_CSV. Prints "wrote <path>" to
// `log` after each write that succeeds; an unset or empty variable, or a
// failed write, is skipped without a message.
void WriteRunDumps(const RunDumps& dumps, std::FILE* log);

}  // namespace ftms

#endif  // FTMS_QOS_RUN_REPORT_H_
