#include "qos/event_journal.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "util/json.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/parse.h"

namespace ftms {

namespace {

std::atomic<int> g_global_enabled{-1};  // -1 = not yet resolved from env

bool ResolveGlobalEnabledFromEnv() {
  const char* env = std::getenv("FTMS_QOS");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

void AppendEventJson(std::string* out, const QosEvent& e) {
  out->append("{\"kind\":\"");
  out->append(QosEventKindName(e.kind));
  out->append("\",\"scheme\":\"");
  out->append(e.scheme);
  out->append("\",\"sim_us\":");
  AppendJsonInt(out, e.sim_us);
  out->append(",\"cycle\":");
  AppendJsonInt(out, e.cycle);
  out->append(",\"disk\":");
  AppendJsonInt(out, e.disk);
  out->append(",\"cluster\":");
  AppendJsonInt(out, e.cluster);
  out->append(",\"stream\":");
  AppendJsonInt(out, e.stream);
  out->append(",\"value\":");
  AppendJsonInt(out, e.value);
  out->append("}");
}

// The dropped-count footer appended to JSONL exports when the ring cap
// evicted events; `sim_us` carries the newest retained event's clock.
void AppendDroppedFooter(std::string* out, int64_t sim_us,
                         int64_t dropped) {
  out->append("{\"kind\":\"journal_dropped\",\"scheme\":\"sim\",\"sim_us\":");
  AppendJsonInt(out, sim_us);
  out->append(",\"cycle\":-1,\"disk\":-1,\"cluster\":-1,\"stream\":-1,"
              "\"value\":");
  AppendJsonInt(out, dropped);
  out->append("}\n");
}

size_t ResolveMaxEventsFromEnv() {
  const char* env = std::getenv("FTMS_QOS_MAX_EVENTS");
  if (env == nullptr || env[0] == '\0') {
    return EventJournal::kDefaultMaxEvents;
  }
  const std::optional<int64_t> v =
      ParseDecimal(env, 0, std::numeric_limits<int64_t>::max());
  if (!v) {
    FTMS_LOG(Warning) << "FTMS_QOS_MAX_EVENTS must be a whole number of "
                         "events (0 = no cap), got '"
                      << env << "'; keeping the default cap";
    return EventJournal::kDefaultMaxEvents;
  }
  return static_cast<size_t>(*v);
}

}  // namespace

std::string_view QosEventKindName(QosEventKind kind) {
  switch (kind) {
    case QosEventKind::kDiskFailed:
      return "disk_failed";
    case QosEventKind::kDiskRepaired:
      return "disk_repaired";
    case QosEventKind::kDegradedTransitionStart:
      return "degraded_transition_start";
    case QosEventKind::kDegradedTransitionEnd:
      return "degraded_transition_end";
    case QosEventKind::kRebuildStart:
      return "rebuild_start";
    case QosEventKind::kRebuildProgress:
      return "rebuild_progress";
    case QosEventKind::kRebuildDone:
      return "rebuild_done";
    case QosEventKind::kHiccups:
      return "hiccups";
    case QosEventKind::kAdmissionRejected:
      return "admission_rejected";
    case QosEventKind::kSloBreach:
      return "slo_breach";
    case QosEventKind::kSimHorizon:
      return "sim_horizon";
  }
  return "unknown";
}

EventJournal& EventJournal::Global() {
  static EventJournal* journal = new EventJournal();  // leaked
  return *journal;
}

bool EventJournal::GlobalEnabled() {
  int state = g_global_enabled.load(std::memory_order_acquire);
  if (state < 0) {
    state = ResolveGlobalEnabledFromEnv() ? 1 : 0;
    g_global_enabled.store(state, std::memory_order_release);
  }
  return state == 1;
}

void EventJournal::SetGlobalEnabled(bool enabled) {
  g_global_enabled.store(enabled ? 1 : 0, std::memory_order_release);
}

EventJournal::EventJournal() : max_events_(ResolveMaxEventsFromEnv()) {}

void EventJournal::Append(const QosEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (max_events_ == 0 || events_.size() < max_events_) {
    events_.push_back(event);
    return;
  }
  // Ring is full: overwrite the oldest slot and advance the head.
  events_[head_] = event;
  head_ = (head_ + 1) % max_events_;
  ++dropped_;
  if (dropped_counter_ == nullptr) {
    if (MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled()) {
      dropped_counter_ = registry->GetCounter(
          "ftms_qos_journal_dropped_total",
          "journal events evicted by the FTMS_QOS_MAX_EVENTS ring cap");
    }
  }
  if (dropped_counter_ != nullptr) dropped_counter_->Add(1);
}

std::vector<QosEvent> EventJournal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QosEvent> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[RingIndex(i)]);
  }
  return out;
}

size_t EventJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

int64_t EventJournal::CountOf(QosEventKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const QosEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void EventJournal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

int64_t EventJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

int64_t EventJournal::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(events_.size()) + dropped_;
}

std::vector<std::string> EventJournal::TailLines(size_t n, int64_t* total,
                                                 int64_t* dropped) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (total != nullptr) *total = static_cast<int64_t>(events_.size());
  if (dropped != nullptr) *dropped = dropped_;
  const size_t count = n < events_.size() ? n : events_.size();
  std::vector<std::string> lines;
  lines.reserve(count);
  for (size_t i = events_.size() - count; i < events_.size(); ++i) {
    std::string line;
    AppendEventJson(&line, events_[RingIndex(i)]);
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string EventJournal::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(events_.size() * 96);
  for (size_t i = 0; i < events_.size(); ++i) {
    AppendEventJson(&out, events_[RingIndex(i)]);
    out.push_back('\n');
  }
  if (dropped_ > 0) {
    const int64_t last_us =
        events_.empty() ? 0
                        : events_[RingIndex(events_.size() - 1)].sim_us;
    AppendDroppedFooter(&out, last_us, dropped_);
  }
  return out;
}

Status EventJournal::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, ToJsonl());
}

std::string EventJournal::StatsJson(const std::string& indent,
                                    const std::string& close_indent) const {
  // One count slot per QosEventKind value, emitted in enum order so the
  // block is deterministic.
  constexpr QosEventKind kKinds[] = {
      QosEventKind::kDiskFailed,
      QosEventKind::kDiskRepaired,
      QosEventKind::kDegradedTransitionStart,
      QosEventKind::kDegradedTransitionEnd,
      QosEventKind::kRebuildStart,
      QosEventKind::kRebuildProgress,
      QosEventKind::kRebuildDone,
      QosEventKind::kHiccups,
      QosEventKind::kAdmissionRejected,
      QosEventKind::kSloBreach,
      QosEventKind::kSimHorizon,
  };
  int64_t counts[sizeof(kKinds) / sizeof(kKinds[0])] = {};
  size_t total = 0;
  int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = events_.size();
    dropped = dropped_;
    for (const QosEvent& e : events_) {
      ++counts[static_cast<size_t>(e.kind)];
    }
  }
  std::string out = "{\n";
  out += indent;
  out += "\"journal_events\": ";
  AppendJsonInt(&out, static_cast<int64_t>(total));
  for (size_t i = 0; i < sizeof(kKinds) / sizeof(kKinds[0]); ++i) {
    if (counts[i] == 0) continue;
    out += ",\n";
    out += indent;
    out += '"';
    out += QosEventKindName(kKinds[i]);
    out += "\": ";
    AppendJsonInt(&out, counts[i]);
  }
  if (dropped > 0) {
    out += ",\n";
    out += indent;
    out += "\"journal_dropped\": ";
    AppendJsonInt(&out, dropped);
  }
  out += "\n" + close_indent + "}";
  return out;
}

}  // namespace ftms
