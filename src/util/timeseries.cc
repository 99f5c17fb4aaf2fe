#include "util/timeseries.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/json.h"
#include "util/metrics.h"

namespace ftms {

namespace {

std::atomic<int> g_ts_enabled{-1};  // -1 = not yet resolved from env

bool ResolveEnabledFromEnv() {
  const char* env = std::getenv("FTMS_TIMESERIES");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(size_t capacity)
    : capacity_(capacity > 1 ? capacity : kDefaultCapacity) {}

TimeSeriesRecorder& TimeSeriesRecorder::Global() {
  static TimeSeriesRecorder* recorder =
      new TimeSeriesRecorder();  // leaked: usable from exit paths
  return *recorder;
}

bool TimeSeriesRecorder::GlobalEnabled() {
  int state = g_ts_enabled.load(std::memory_order_acquire);
  if (state < 0) {
    state = ResolveEnabledFromEnv() ? 1 : 0;
    g_ts_enabled.store(state, std::memory_order_release);
  }
  return state == 1;
}

void TimeSeriesRecorder::SetGlobalEnabled(bool enabled) {
  g_ts_enabled.store(enabled ? 1 : 0, std::memory_order_release);
}

int TimeSeriesRecorder::DefineSeriesLocked(const std::string& name) {
  for (size_t i = 0; i < series_.size(); ++i) {
    if (series_[i]->name == name) return static_cast<int>(i);
  }
  auto s = std::make_unique<Series>();
  s->name = name;
  s->pts.reserve(capacity_);
  series_.push_back(std::move(s));
  return static_cast<int>(series_.size() - 1);
}

int TimeSeriesRecorder::DefineSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return DefineSeriesLocked(name);
}

void TimeSeriesRecorder::AppendLocked(Series& s, int64_t t_us, double v) {
  if (s.skip > 0) {
    --s.skip;
    return;
  }
  s.skip = s.stride - 1;
  if (s.pts.size() >= capacity_) {
    // Ring full: 2x downsample in place (keep even indices) and double
    // the stride so future appends continue the halved cadence.
    size_t w = 0;
    for (size_t r = 0; r < s.pts.size(); r += 2) s.pts[w++] = s.pts[r];
    s.pts.resize(w);
    s.stride *= 2;
    s.skip = s.stride - 1;
  }
  s.pts.push_back(Point{t_us, v});
}

void TimeSeriesRecorder::Append(int id, int64_t t_us, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= series_.size()) return;
  AppendLocked(*series_[static_cast<size_t>(id)], t_us, v);
}

void TimeSeriesRecorder::AddCounterSeries(const std::string& name,
                                          const Counter* counter,
                                          bool as_rate) {
  if (counter == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = *series_[static_cast<size_t>(DefineSeriesLocked(name))];
  s.counter = counter;
  s.gauge = nullptr;
  s.as_rate = as_rate;
  s.last_value = counter->value();
}

void TimeSeriesRecorder::AddGaugeSeries(const std::string& name,
                                        const Gauge* gauge) {
  if (gauge == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = *series_[static_cast<size_t>(DefineSeriesLocked(name))];
  s.gauge = gauge;
  s.counter = nullptr;
}

void TimeSeriesRecorder::Sample(int64_t t_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (t_us <= last_sample_t_) return;  // once per distinct time
  const int64_t prev_t = last_sample_t_;
  last_sample_t_ = t_us;
  for (const auto& sp : series_) {
    Series& s = *sp;
    if (s.counter != nullptr) {
      const int64_t now = s.counter->value();
      if (s.as_rate) {
        const int64_t dt = prev_t == INT64_MIN ? 0 : t_us - prev_t;
        const double rate =
            dt > 0 ? static_cast<double>(now - s.last_value) /
                         (static_cast<double>(dt) / 1e6)
                   : 0.0;
        AppendLocked(s, t_us, rate);
      } else {
        AppendLocked(s, t_us, static_cast<double>(now));
      }
      s.last_value = now;
    } else if (s.gauge != nullptr) {
      AppendLocked(s, t_us, s.gauge->value());
    }
  }
}

size_t TimeSeriesRecorder::num_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::vector<TimeSeriesRecorder::Point> TimeSeriesRecorder::SeriesPoints(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : series_) {
    if (s->name == name) return s->pts;
  }
  return {};
}

int64_t TimeSeriesRecorder::SeriesStride(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : series_) {
    if (s->name == name) return s->stride;
  }
  return 0;
}

std::string TimeSeriesRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Series*> ordered;
  ordered.reserve(series_.size());
  for (const auto& s : series_) ordered.push_back(s.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });

  std::string out = "{\n  \"schema\": 1,\n  \"series\": {";
  bool first = true;
  for (const Series* s : ordered) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(&out, s->name);
    out += ": {\"stride\": ";
    AppendJsonNumber(&out, static_cast<double>(s->stride), 9);
    out += ", \"t\": [";
    for (size_t i = 0; i < s->pts.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonNumber(&out, static_cast<double>(s->pts[i].t_us), 9);
    }
    out += "], \"v\": [";
    for (size_t i = 0; i < s->pts.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonNumber(&out, s->pts[i].v, 9);
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string TimeSeriesRecorder::ToCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Series*> ordered;
  ordered.reserve(series_.size());
  for (const auto& s : series_) ordered.push_back(s.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });

  std::string out = "series,t_us,value\n";
  for (const Series* s : ordered) {
    for (const Point& p : s->pts) {
      out += s->name;
      out += ',';
      AppendTextNumber(&out, static_cast<double>(p.t_us), 9);
      out += ',';
      AppendTextNumber(&out, p.v, 9);
      out += '\n';
    }
  }
  return out;
}

std::string TimeSeriesRecorder::SummaryJson(
    const std::string& indent, const std::string& close_indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Series*> ordered;
  ordered.reserve(series_.size());
  for (const auto& s : series_) ordered.push_back(s.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });

  size_t points_total = 0;
  for (const Series* s : ordered) points_total += s->pts.size();

  std::string out = "{\n";
  out += indent + "\"series_count\": " + std::to_string(ordered.size()) +
         ",\n";
  out += indent + "\"points_total\": " + std::to_string(points_total) +
         ",\n";
  out += indent + "\"series\": {";
  bool first = true;
  for (const Series* s : ordered) {
    if (s->pts.empty()) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += indent + "  ";
    AppendJsonString(&out, s->name);
    out += ": {\"points\": " + std::to_string(s->pts.size());
    out += ", \"t_first\": ";
    AppendJsonNumber(&out, static_cast<double>(s->pts.front().t_us), 9);
    out += ", \"t_last\": ";
    AppendJsonNumber(&out, static_cast<double>(s->pts.back().t_us), 9);
    out += ", \"v_last\": ";
    AppendJsonNumber(&out, s->pts.back().v, 9);
    out += "}";
  }
  out += first ? "}\n" : "\n" + indent + "}\n";
  out += close_indent + "}";
  return out;
}

Status TimeSeriesRecorder::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

Status TimeSeriesRecorder::WriteCsv(const std::string& path) const {
  return WriteTextFile(path, ToCsv());
}

void TimeSeriesRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  last_sample_t_ = INT64_MIN;
}

}  // namespace ftms
