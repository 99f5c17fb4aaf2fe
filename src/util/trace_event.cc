#include "util/trace_event.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/json.h"
#include "util/metrics.h"

namespace ftms {

namespace {

std::atomic<int> g_trace_enabled{-1};  // -1 = not yet resolved from env

bool ResolveEnabledFromEnv() {
  const char* env = std::getenv("FTMS_TRACE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

size_t CapacityFromEnv() {
  if (const char* env = std::getenv("FTMS_TRACE_CAPACITY")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 65536;
}

}  // namespace

Tracer::Tracer(size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(capacity > 0 ? capacity : CapacityFromEnv()) {
  ring_.resize(capacity_);
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: usable from exit paths
  return *tracer;
}

bool Tracer::GlobalEnabled() {
  int state = g_trace_enabled.load(std::memory_order_acquire);
  if (state < 0) {
    state = ResolveEnabledFromEnv() ? 1 : 0;
    g_trace_enabled.store(state, std::memory_order_release);
  }
  return state == 1;
}

void Tracer::SetGlobalEnabled(bool enabled) {
  g_trace_enabled.store(enabled ? 1 : 0, std::memory_order_release);
}

int32_t Tracer::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const int32_t tid = next_tid_++;
  track_names_[tid] = name;
  return tid;
}

int64_t Tracer::WallMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Record(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (used_ == capacity_) {
    ++overwritten_;
    // Resolve once, on the first drop (registry mutex is distinct from
    // mu_ and the registry never calls back into the tracer).
    if (!dropped_counter_resolved_) {
      dropped_counter_resolved_ = true;
      if (MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled()) {
        dropped_counter_ = registry->GetCounter(
            "ftms_trace_dropped_total",
            "trace events lost to ring wrap-around");
      }
    }
    if (dropped_counter_ != nullptr) dropped_counter_->Add(1);
  }
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  used_ = std::min(used_ + 1, capacity_);
}

void Tracer::Complete(const char* name, const char* cat, int32_t tid,
                      int64_t ts_us, int64_t dur_us, const char* arg1_name,
                      double arg1, const char* arg2_name, double arg2) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.wall_us = WallMicros();
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  Record(e);
}

void Tracer::Instant(const char* name, const char* cat, int32_t tid,
                     int64_t ts_us, const char* arg1_name, double arg1,
                     const char* arg2_name, double arg2) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.phase = 'i';
  e.tid = tid;
  e.ts_us = ts_us;
  e.wall_us = WallMicros();
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  Record(e);
}

std::vector<Tracer::Event> Tracer::Snapshot() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.reserve(used_);
    // Oldest-first: when wrapped, the oldest entry is at `next_`.
    const size_t start = used_ == capacity_ ? next_ : 0;
    for (size_t i = 0; i < used_; ++i) {
      events.push_back(ring_[(start + i) % capacity_]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

int64_t Tracer::overwritten() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overwritten_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  used_ = 0;
  overwritten_ = 0;
}

std::string Tracer::ToChromeJson() const {
  const std::vector<Event> events = Snapshot();
  std::map<int32_t, std::string> tracks;
  int64_t overwritten;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tracks = track_names_;
    overwritten = overwritten_;
  }

  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
                    "{\"clock\": \"sim_us\", \"overwritten\": ";
  AppendJsonNumber(&out, static_cast<double>(overwritten), 6);
  // "dropped" is the stable name consumers key on; "overwritten" is kept
  // for older tooling (same value: a wrap drops exactly one event).
  out += ", \"dropped\": ";
  AppendJsonNumber(&out, static_cast<double>(overwritten), 6);
  out += "},\n\"traceEvents\": [";
  bool first = true;
  const auto begin_event = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  for (const auto& [tid, name] : tracks) {
    begin_event();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": ";
    AppendJsonNumber(&out, tid, 6);
    out += ", \"args\": {\"name\": ";
    AppendJsonString(&out, name);
    out += "}}";
  }
  for (const Event& e : events) {
    begin_event();
    out += "{\"name\": ";
    AppendJsonString(&out, e.name);
    out += ", \"cat\": ";
    AppendJsonString(&out, e.cat[0] != '\0' ? e.cat : "ftms");
    out += ", \"ph\": \"";
    out.push_back(e.phase);
    out += "\", \"pid\": 1, \"tid\": ";
    AppendJsonNumber(&out, e.tid, 6);
    out += ", \"ts\": ";
    AppendJsonNumber(&out, static_cast<double>(e.ts_us), 6);
    if (e.phase == 'X') {
      out += ", \"dur\": ";
      AppendJsonNumber(&out, static_cast<double>(e.dur_us), 6);
    }
    if (e.phase == 'i') out += ", \"s\": \"t\"";
    out += ", \"args\": {\"wall_us\": ";
    AppendJsonNumber(&out, static_cast<double>(e.wall_us), 6);
    if (e.arg1_name != nullptr) {
      out += ", ";
      AppendJsonString(&out, e.arg1_name);
      out += ": ";
      AppendJsonNumber(&out, e.arg1, 6);
    }
    if (e.arg2_name != nullptr) {
      out += ", ";
      AppendJsonString(&out, e.arg2_name);
      out += ": ";
      AppendJsonNumber(&out, e.arg2, 6);
    }
    out += "}}";
  }
  out += "\n]\n}\n";
  return out;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  return WriteTextFile(path, ToChromeJson());
}

}  // namespace ftms
