#include "qos/run_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <map>

#include "qos/event_journal.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/timeseries.h"

namespace ftms {

namespace {

// Simulated microseconds as seconds with millisecond precision — the
// journal's native resolution at cycle granularity.
void AppendSeconds(std::string* out, int64_t us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(us) / 1e6);
  out->append(buf);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot read " + path);
  }
  std::string data;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return data;
}

// Reads the integer `v` (nothing to do when null) into *out. A number
// AsInt cannot represent is malformed input; the error names `where` and
// `field`.
Status ReadInt(const JsonValue* v, const std::string& where,
               std::string_view field, int64_t* out) {
  if (v == nullptr) return Status::Ok();
  if (v->is_number() && !v->fits_int64()) {
    return Status::InvalidArgument(where + ": \"" + std::string(field) +
                                   "\" is outside the int64 range");
  }
  *out = v->AsInt();
  return Status::Ok();
}

// Reads the number `v` (nothing to do when null) into *out. A literal
// past the double range reads as infinite, which no renderer can write
// back as JSON; it is malformed input too.
Status ReadNumber(const JsonValue* v, const std::string& where,
                  std::string_view field, double* out) {
  if (v == nullptr) return Status::Ok();
  if (v->is_number() && !std::isfinite(v->AsNumber())) {
    return Status::InvalidArgument(where + ": \"" + std::string(field) +
                                   "\" is outside the double range");
  }
  *out = v->AsNumber();
  return Status::Ok();
}

Status LoadJournal(const std::string& path, RunReport* report) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  std::map<std::string, int64_t> counts;
  size_t pos = 0;
  int64_t line_no = 0;
  while (pos < text->size()) {
    size_t end = text->find('\n', pos);
    if (end == std::string::npos) end = text->size();
    const std::string_view line(text->data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const std::string where = path + ":" + std::to_string(line_no);
    StatusOr<JsonValue> value = JsonValue::Parse(line);
    if (!value.ok()) {
      return Status::InvalidArgument(where + ": " +
                                     std::string(value.status().message()));
    }
    const JsonValue* kind = value->Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return Status::InvalidArgument(
          where + ": journal event without a \"kind\" string");
    }
    RunReport::TimelineEvent event;
    for (const auto& [field, out] : {std::pair{"sim_us", &event.sim_us},
                                     std::pair{"cycle", &event.cycle},
                                     std::pair{"disk", &event.disk},
                                     std::pair{"cluster", &event.cluster},
                                     std::pair{"value", &event.value}}) {
      FTMS_RETURN_IF_ERROR(ReadInt(value->Find(field), where, field, out));
    }
    ++report->event_count;
    ++counts[kind->AsString()];
    event.kind = kind->AsString();
    if (const JsonValue* v = value->Find("scheme")) {
      event.scheme = v->AsString();
    }
    report->horizon_us = std::max(report->horizon_us, event.sim_us);
    report->events.push_back(event);
    if (event.kind == "hiccups") {
      report->hiccups.push_back(std::move(event));
    } else if (event.kind == "slo_breach") {
      report->slo_breaches.push_back(std::move(event));
    } else if (event.kind == "rebuild_start" ||
               event.kind == "rebuild_progress" ||
               event.kind == "rebuild_done") {
      report->rebuild.push_back(std::move(event));
    }
  }
  report->kind_counts.assign(counts.begin(), counts.end());
  return Status::Ok();
}

Status FlattenProfile(const std::string& file, const JsonValue& node,
                      const std::string& prefix, int depth,
                      std::vector<RunReport::ProfileNode>* out) {
  const JsonValue* name = node.Find("name");
  if (name == nullptr || !name->is_string()) return Status::Ok();
  RunReport::ProfileNode flat;
  flat.path = prefix.empty() ? name->AsString()
                             : prefix + " > " + name->AsString();
  flat.depth = depth;
  const std::string where = file + ": profile \"" + flat.path + "\"";
  FTMS_RETURN_IF_ERROR(ReadInt(node.Find("count"), where, "count",
                               &flat.count));
  FTMS_RETURN_IF_ERROR(ReadNumber(node.Find("wall_us"), where, "wall_us",
                                  &flat.wall_us));
  const std::string path = flat.path;
  out->push_back(std::move(flat));
  if (const JsonValue* children = node.Find("children")) {
    for (const JsonValue& child : children->items()) {
      FTMS_RETURN_IF_ERROR(FlattenProfile(file, child, path, depth + 1, out));
    }
  }
  return Status::Ok();
}

Status LoadMetrics(const std::string& path, RunReport* report) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  StatusOr<JsonValue> value = JsonValue::Parse(*text);
  if (!value.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(value.status().message()));
  }
  if (!value->is_object()) {
    return Status::InvalidArgument(path + ": expected a JSON object");
  }
  const JsonValue* metrics = value->Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::InvalidArgument(
        path + ": no \"metrics\" object (not a bench report?)");
  }
  report->has_metrics = true;
  if (const JsonValue* bench = value->Find("bench")) {
    report->bench_name = bench->AsString();
  }
  FTMS_RETURN_IF_ERROR(ReadInt(value->Find("schema_version"), path,
                               "schema_version", &report->schema_version));
  for (const auto& [key, v] : metrics->members()) {
    double value = 0;
    FTMS_RETURN_IF_ERROR(ReadNumber(&v, path + ": metrics", key, &value));
    report->metrics.emplace_back(key, value);
  }
  if (const JsonValue* profile = value->Find("profile")) {
    if (const JsonValue* nodes = profile->Find("nodes")) {
      for (const JsonValue& node : nodes->items()) {
        FTMS_RETURN_IF_ERROR(
            FlattenProfile(path, node, "", 0, &report->profile));
      }
    }
  }
  return Status::Ok();
}

Status LoadTimeSeries(const std::string& path, RunReport* report) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  StatusOr<JsonValue> value = JsonValue::Parse(*text);
  if (!value.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(value.status().message()));
  }
  const JsonValue* series = value->Find("series");
  if (series == nullptr || !series->is_object()) {
    return Status::InvalidArgument(
        path + ": no \"series\" object (not a time-series dump?)");
  }
  report->has_timeseries = true;
  for (const auto& [name, s] : series->members()) {
    const JsonValue* t = s.Find("t");
    const JsonValue* v = s.Find("v");
    if (t == nullptr || v == nullptr || !t->is_array() || !v->is_array() ||
        t->items().size() != v->items().size()) {
      return Status::InvalidArgument(path + ": series \"" + name +
                                     "\" has mismatched t/v columns");
    }
    const std::string where = path + ": series \"" + name + "\"";
    RunReport::SeriesSummary sum;
    sum.name = name;
    sum.points = t->items().size();
    FTMS_RETURN_IF_ERROR(ReadInt(s.Find("stride"), where, "stride",
                                 &sum.stride));
    sum.curve.reserve(sum.points);
    for (size_t i = 0; i < sum.points; ++i) {
      int64_t ti = 0;
      double vi = 0;
      FTMS_RETURN_IF_ERROR(ReadInt(&t->items()[i], where, "t", &ti));
      FTMS_RETURN_IF_ERROR(ReadNumber(&v->items()[i], where, "v", &vi));
      if (i == 0) {
        sum.t_first = ti;
        sum.v_first = vi;
        sum.v_min = vi;
        sum.v_max = vi;
      }
      sum.t_last = ti;
      sum.v_last = vi;
      sum.v_min = std::min(sum.v_min, vi);
      sum.v_max = std::max(sum.v_max, vi);
      sum.curve.emplace_back(ti, vi);
    }
    report->series.push_back(std::move(sum));
  }
  std::sort(report->series.begin(), report->series.end(),
            [](const RunReport::SeriesSummary& a,
               const RunReport::SeriesSummary& b) { return a.name < b.name; });
  return Status::Ok();
}

// Renders a curve as at most `max_points` "t -> v" steps (first and last
// always kept), so long runs stay readable.
void AppendCurve(std::string* out, const RunReport::SeriesSummary& s,
                 size_t max_points) {
  if (s.curve.empty()) return;
  const size_t n = s.curve.size();
  const size_t step = n <= max_points ? 1 : (n + max_points - 1) / max_points;
  const auto point = [&](size_t i) {
    *out += "  - t=";
    AppendSeconds(out, s.curve[i].first);
    *out += "s: ";
    AppendTextNumber(out, s.curve[i].second, 6);
    *out += "\n";
  };
  for (size_t i = 0; i < n; i += step) point(i);
  if ((n - 1) % step != 0) point(n - 1);
}

// One Markdown timeline line, "- t=<s>s cycle=<c> <label>=<value>",
// with the scheme in parentheses when the event names one.
void AppendEventLine(std::string* out, const RunReport::TimelineEvent& e,
                     const char* label) {
  *out += "- t=";
  AppendSeconds(out, e.sim_us);
  *out += "s cycle=";
  AppendJsonInt(out, e.cycle);
  *out += ' ';
  *out += label;
  *out += '=';
  AppendJsonInt(out, e.value);
  if (!e.scheme.empty()) *out += " (" + e.scheme + ")";
  *out += "\n";
}

// The journal kinds that open and close a timeline span, and the id a
// start pairs with its end on.
struct SpanKind {
  std::string_view start;
  std::string_view end;
  std::string_view name;
  std::string_view id_name;
  int64_t RunReport::TimelineEvent::*id;
};
constexpr SpanKind kSpanKinds[] = {
    {"degraded_transition_start", "degraded_transition_end",
     "degraded_transition", "cluster", &RunReport::TimelineEvent::cluster},
    {"rebuild_start", "rebuild_done", "rebuild", "disk",
     &RunReport::TimelineEvent::disk},
};

// The latest run of one scheme: one Chrome process.
struct ChromeRun {
  using Key = std::pair<size_t, int64_t>;  // kSpanKinds index, id
  int64_t pid = 0;
  int number = 0;  // runs of the scheme so far
  int64_t last_cycle = 0;
  int64_t last_us = 0;
  // Span tracks as (key, end of the last span); tid = index + 1, and
  // tid 0 holds the journal's instants.
  std::vector<std::pair<Key, int64_t>> tracks;
  // Span starts waiting for their end, oldest first.
  std::map<Key, std::deque<const RunReport::TimelineEvent*>> open;
};

// Opens a traceEvents entry, led by ",\n", up to and including "ts".
void BeginChromeEvent(std::string* out, std::string_view name,
                      std::string_view cat, char ph, int64_t pid,
                      int64_t tid, int64_t ts) {
  out->append(",\n{\"name\": ");
  AppendJsonString(out, name);
  out->append(", \"cat\": \"").append(cat).append("\", \"ph\": \"");
  out->append(1, ph).append("\", \"pid\": ");
  AppendJsonInt(out, pid);
  out->append(", \"tid\": ");
  AppendJsonInt(out, tid);
  out->append(", \"ts\": ");
  AppendJsonInt(out, ts);
}

// A process_name or thread_name metadata entry.
void AppendChromeName(std::string* out, std::string_view what, int64_t pid,
                      int64_t tid, const std::string& name) {
  BeginChromeEvent(out, what, "__metadata", 'M', pid, tid, 0);
  *out += ", \"args\": {\"name\": ";
  AppendJsonString(out, name);
  *out += "}}";
}

// Closes an entry with integer args.
void AppendIntArgs(
    std::string* out,
    std::initializer_list<std::pair<std::string_view, int64_t>> args) {
  *out += ", \"args\": {";
  std::string_view sep;
  for (const auto& [name, v] : args) {
    *out += sep;
    AppendJsonString(out, name);
    *out += ": ";
    AppendJsonInt(out, v);
    sep = ", ";
  }
  *out += "}}";
}

// Renders the span from `start` to (end_us, end_cycle) on the first
// `key` track free by its start, opening a track when none is.
void AppendSpan(std::string* out, ChromeRun* run, ChromeRun::Key key,
                const RunReport::TimelineEvent& start, int64_t end_us,
                int64_t end_cycle) {
  const SpanKind& kind = kSpanKinds[key.first];
  size_t tid = 0;
  int lanes = 0;
  for (size_t i = 0; i < run->tracks.size() && tid == 0; ++i) {
    if (run->tracks[i].first != key) continue;
    ++lanes;
    if (run->tracks[i].second <= start.sim_us) tid = i + 1;
  }
  if (tid == 0) {
    run->tracks.emplace_back(key, 0);
    tid = run->tracks.size();
    std::string name = std::string(kind.name) + " " +
                       std::string(kind.id_name) + " " +
                       std::to_string(key.second);
    if (lanes > 0) name += " #" + std::to_string(lanes + 1);
    AppendChromeName(out, "thread_name", run->pid,
                     static_cast<int64_t>(tid), name);
  }
  run->tracks[tid - 1].second = std::max(start.sim_us, end_us);
  // Unsigned, so hostile input wraps instead of overflowing.
  const int64_t dur = end_us > start.sim_us
                          ? static_cast<int64_t>(
                                static_cast<uint64_t>(end_us) -
                                static_cast<uint64_t>(start.sim_us))
                          : 0;
  BeginChromeEvent(out, kind.name, kind.name, 'X', run->pid,
                   static_cast<int64_t>(tid), start.sim_us);
  *out += ", \"dur\": ";
  AppendJsonInt(out, dur);
  AppendIntArgs(out, {{kind.id_name, start.*kind.id},
                      {"start_cycle", start.cycle},
                      {"end_cycle", end_cycle}});
}

// Closes every span still open in `run` at the run's last event.
void CloseOpenSpans(std::string* out, ChromeRun* run) {
  for (const auto& [key, starts] : run->open) {
    for (const RunReport::TimelineEvent* start : starts) {
      AppendSpan(out, run, key, *start, run->last_us, run->last_cycle);
    }
  }
  run->open.clear();
}

}  // namespace

StatusOr<RunReport> LoadRunReport(const std::string& journal_path,
                                  const std::string& metrics_path,
                                  const std::string& timeseries_path) {
  RunReport report;
  report.journal_path = journal_path;
  FTMS_RETURN_IF_ERROR(LoadJournal(journal_path, &report));
  if (!metrics_path.empty()) {
    FTMS_RETURN_IF_ERROR(LoadMetrics(metrics_path, &report));
  }
  if (!timeseries_path.empty()) {
    FTMS_RETURN_IF_ERROR(LoadTimeSeries(timeseries_path, &report));
  }
  return report;
}

std::string RenderRunReportMarkdown(const RunReport& report) {
  std::string out = "# FTMS run report\n\n";
  out += "Journal: `" + report.journal_path + "` — ";
  AppendJsonInt(&out, report.event_count);
  out += " events, horizon ";
  AppendSeconds(&out, report.horizon_us);
  out += " s simulated.\n";

  out += "\n## Journal events\n\n";
  if (report.kind_counts.empty()) {
    out += "No events recorded.\n";
  } else {
    out += "| kind | count |\n|---|---|\n";
    for (const auto& [kind, count] : report.kind_counts) {
      out += "| " + kind + " | ";
      AppendJsonInt(&out, count);
      out += " |\n";
    }
  }

  out += "\n## SLO burn\n\n";
  if (report.slo_breaches.empty()) {
    out += "No SLO breaches recorded.\n";
  } else {
    AppendJsonInt(&out, static_cast<int64_t>(report.slo_breaches.size()));
    out += " breach transition(s):\n\n";
    for (const auto& e : report.slo_breaches) {
      AppendEventLine(&out, e, "slo_index");
    }
  }
  for (const auto& s : report.series) {
    if (s.name.find("slo_burn") == std::string::npos) continue;
    out += "\nBurn rate `" + s.name + "` (max ";
    AppendTextNumber(&out, s.v_max, 6);
    out += ", last ";
    AppendTextNumber(&out, s.v_last, 6);
    out += "):\n";
    AppendCurve(&out, s, 8);
  }

  out += "\n## Hiccup timeline\n\n";
  if (report.hiccups.empty()) {
    out += "No hiccups recorded.\n";
  } else {
    const size_t shown = std::min<size_t>(report.hiccups.size(), 20);
    for (size_t i = 0; i < shown; ++i) {
      AppendEventLine(&out, report.hiccups[i], "tracks_missed");
    }
    if (report.hiccups.size() > shown) {
      out += "- ... and ";
      AppendJsonInt(&out,
                    static_cast<int64_t>(report.hiccups.size() - shown));
      out += " more\n";
    }
  }

  out += "\n## Rebuild\n\n";
  if (report.rebuild.empty()) {
    out += "No rebuild recorded.\n";
  } else {
    for (const auto& e : report.rebuild) {
      out += "- t=";
      AppendSeconds(&out, e.sim_us);
      out += "s " + e.kind;
      out += e.kind == "rebuild_start"      ? " tracks_total="
             : e.kind == "rebuild_progress" ? " percent="
                                            : " cycles=";
      AppendJsonInt(&out, e.value);
      out += "\n";
    }
  }
  for (const auto& s : report.series) {
    if (s.name.find("rebuild.") != 0 ||
        s.name.find(".progress") == std::string::npos) {
      continue;
    }
    out += "\nProgress curve `" + s.name + "` (";
    AppendJsonInt(&out, static_cast<int64_t>(s.points));
    out += " points, stride ";
    AppendJsonInt(&out, s.stride);
    out += "):\n";
    AppendCurve(&out, s, 16);
  }

  if (!report.profile.empty()) {
    out += "\n## Per-subsystem time split\n\n";
    double top_total = 0;
    for (const auto& node : report.profile) {
      if (node.depth == 0) top_total += node.wall_us;
    }
    out += "| scope | calls | wall ms | share |\n|---|---|---|---|\n";
    for (const auto& node : report.profile) {
      out += "| ";
      for (int i = 0; i < node.depth; ++i) out += "&nbsp;&nbsp;";
      const size_t leaf = node.path.rfind(" > ");
      out += leaf == std::string::npos ? node.path
                                       : node.path.substr(leaf + 3);
      out += " | ";
      AppendJsonInt(&out, node.count);
      out += " | ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", node.wall_us / 1000.0);
      out += buf;
      out += " | ";
      if (node.depth == 0 && top_total > 0) {
        std::snprintf(buf, sizeof(buf), "%.1f%%",
                      100.0 * node.wall_us / top_total);
        out += buf;
      } else {
        out += "-";
      }
      out += " |\n";
    }
  }

  if (report.has_timeseries) {
    out += "\n## Time series\n\n";
    if (report.series.empty()) {
      out += "No series recorded.\n";
    } else {
      out += "| series | points | stride | t range (s) | last |\n"
             "|---|---|---|---|---|\n";
      for (const auto& s : report.series) {
        out += "| " + s.name + " | ";
        AppendJsonInt(&out, static_cast<int64_t>(s.points));
        out += " | ";
        AppendJsonInt(&out, s.stride);
        out += " | ";
        AppendSeconds(&out, s.t_first);
        out += " – ";
        AppendSeconds(&out, s.t_last);
        out += " | ";
        AppendTextNumber(&out, s.v_last, 6);
        out += " |\n";
      }
    }
  }

  if (report.has_metrics) {
    out += "\n## Bench metrics\n\n";
    if (!report.bench_name.empty()) {
      out += "`" + report.bench_name + "` (schema ";
      AppendJsonInt(&out, report.schema_version);
      out += ")\n\n";
    }
    out += "| metric | value |\n|---|---|\n";
    for (const auto& [key, value] : report.metrics) {
      out += "| " + key + " | ";
      AppendTextNumber(&out, value, 6);
      out += " |\n";
    }
  }

  return out;
}

std::string RenderRunReportJson(const RunReport& report) {
  std::string out = "{\n  \"journal\": ";
  AppendJsonString(&out, report.journal_path);
  out += ",\n  \"event_count\": ";
  AppendJsonInt(&out, report.event_count);
  out += ",\n  \"horizon_us\": ";
  AppendJsonInt(&out, report.horizon_us);
  out += ",\n  \"events\": {";
  for (size_t i = 0; i < report.kind_counts.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    ";
    AppendJsonString(&out, report.kind_counts[i].first);
    out += ": ";
    AppendJsonInt(&out, report.kind_counts[i].second);
  }
  out += report.kind_counts.empty() ? "}" : "\n  }";

  const auto emit_events =
      [&](const char* key, const std::vector<RunReport::TimelineEvent>& evs) {
        out += ",\n  \"";
        out += key;
        out += "\": [";
        for (size_t i = 0; i < evs.size(); ++i) {
          out += i == 0 ? "\n" : ",\n";
          out += "    {\"sim_us\": ";
          AppendJsonInt(&out, evs[i].sim_us);
          out += ", \"cycle\": ";
          AppendJsonInt(&out, evs[i].cycle);
          out += ", \"kind\": ";
          AppendJsonString(&out, evs[i].kind);
          out += ", \"value\": ";
          AppendJsonInt(&out, evs[i].value);
          out += "}";
        }
        out += evs.empty() ? "]" : "\n  ]";
      };
  emit_events("hiccups", report.hiccups);
  emit_events("slo_breaches", report.slo_breaches);
  emit_events("rebuild", report.rebuild);

  if (report.has_metrics) {
    out += ",\n  \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    ";
      AppendJsonString(&out, report.metrics[i].first);
      out += ": ";
      AppendJsonNumber(&out, report.metrics[i].second, 6);
    }
    out += report.metrics.empty() ? "}" : "\n  }";
    out += ",\n  \"profile\": [";
    for (size_t i = 0; i < report.profile.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"path\": ";
      AppendJsonString(&out, report.profile[i].path);
      out += ", \"count\": ";
      AppendJsonInt(&out, report.profile[i].count);
      out += ", \"wall_us\": ";
      AppendJsonNumber(&out, report.profile[i].wall_us, 6);
      out += "}";
    }
    out += report.profile.empty() ? "]" : "\n  ]";
  }

  if (report.has_timeseries) {
    out += ",\n  \"timeseries\": {";
    for (size_t i = 0; i < report.series.size(); ++i) {
      const auto& s = report.series[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    ";
      AppendJsonString(&out, s.name);
      out += ": {\"points\": ";
      AppendJsonInt(&out, static_cast<int64_t>(s.points));
      out += ", \"stride\": ";
      AppendJsonInt(&out, s.stride);
      out += ", \"t_first\": ";
      AppendJsonInt(&out, s.t_first);
      out += ", \"t_last\": ";
      AppendJsonInt(&out, s.t_last);
      out += ", \"v_min\": ";
      AppendJsonNumber(&out, s.v_min, 6);
      out += ", \"v_max\": ";
      AppendJsonNumber(&out, s.v_max, 6);
      out += ", \"v_last\": ";
      AppendJsonNumber(&out, s.v_last, 6);
      out += "}";
    }
    out += report.series.empty() ? "}" : "\n  }";
  }

  out += "\n}\n";
  return out;
}

std::string RenderRunReportChrome(const RunReport& report) {
  std::string events;
  std::map<std::string, ChromeRun> runs;  // by scheme
  int64_t pids = 0;
  for (const RunReport::TimelineEvent& e : report.events) {
    ChromeRun& run = runs[e.scheme];
    if (run.pid == 0 || e.cycle < run.last_cycle) {
      CloseOpenSpans(&events, &run);
      run.pid = ++pids;
      ++run.number;
      run.tracks.clear();
      AppendChromeName(&events, "process_name", run.pid, 0,
                       e.scheme + " run " + std::to_string(run.number));
      AppendChromeName(&events, "thread_name", run.pid, 0, "journal");
    }
    run.last_cycle = e.cycle;
    run.last_us = e.sim_us;
    BeginChromeEvent(&events, e.kind, "journal", 'i', run.pid, 0, e.sim_us);
    AppendIntArgs(&events, {{"cycle", e.cycle},
                            {"disk", e.disk},
                            {"cluster", e.cluster},
                            {"value", e.value}});
    for (size_t k = 0; k < std::size(kSpanKinds); ++k) {
      const SpanKind& kind = kSpanKinds[k];
      if (e.kind != kind.start && e.kind != kind.end) continue;
      const ChromeRun::Key key{k, e.*kind.id};
      std::deque<const RunReport::TimelineEvent*>& open = run.open[key];
      if (e.kind == kind.start) {
        open.push_back(&e);
      } else if (!open.empty()) {
        AppendSpan(&events, &run, key, *open.front(), e.sim_us, e.cycle);
        open.pop_front();
      }
    }
  }
  for (auto& [scheme, run] : runs) CloseOpenSpans(&events, &run);
  if (report.has_timeseries) {
    const int64_t pid = pids + 1;
    AppendChromeName(&events, "process_name", pid, 0, "time series");
    for (const RunReport::SeriesSummary& s : report.series) {
      for (const auto& [t, v] : s.curve) {
        BeginChromeEvent(&events, s.name, "series", 'C', pid, 0, t);
        events += ", \"args\": {\"value\": ";
        AppendJsonNumber(&events, v, 6);
        events += "}}";
      }
    }
  }
  if (!events.empty()) events.erase(0, 1);  // the first entry's comma
  return "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"clock\": "
         "\"sim_us\"},\n\"traceEvents\": [" +
         events + "\n]\n}\n";
}

void WriteRunDumps(const RunDumps& dumps, std::FILE* log) {
  const auto dump = [log](const char* env, auto write) {
    const char* path = std::getenv(env);
    if (path != nullptr && path[0] != '\0' && write(path).ok()) {
      std::fprintf(log, "wrote %s\n", path);
    }
  };
  if (dumps.metrics != nullptr) {
    dump("FTMS_METRICS_OUT", [&](const char* path) {
      return dumps.metrics->WritePrometheusFile(path);
    });
  }
  if (dumps.journal != nullptr) {
    dump("FTMS_QOS_OUT", [&](const char* path) {
      return dumps.journal->WriteJsonl(path);
    });
  }
  if (dumps.profile) {
    Profiler::FoldAtSyncPoint();
    dump("FTMS_PROF_OUT",
         [](const char* path) { return Profiler::WriteJson(path); });
  }
  if (dumps.timeseries != nullptr) {
    dump("FTMS_TIMESERIES_OUT", [&](const char* path) {
      return dumps.timeseries->WriteJson(path);
    });
    dump("FTMS_TIMESERIES_CSV", [&](const char* path) {
      return dumps.timeseries->WriteCsv(path);
    });
  }
}

}  // namespace ftms
