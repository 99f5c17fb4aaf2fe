#ifndef FTMS_QOS_EVENT_JOURNAL_H_
#define FTMS_QOS_EVENT_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ftms {

// Semantic event kinds recorded by the schedulers, the rebuild manager and
// the simulation engine. Unlike registry counters (totals), journal
// events capture WHAT happened to WHOM: a specific disk failed mid-sweep,
// a specific cluster entered its degraded transition, a rebuild crossed a
// progress quarter, an SLO started burning.
enum class QosEventKind : uint8_t {
  kDiskFailed,               // value = 1 when the failure hit mid-sweep
  kDiskRepaired,             // value = 0
  kDegradedTransitionStart,  // value = transition length bound in cycles (C)
  kDegradedTransitionEnd,    // value = 1 when cut short by a repair
  kRebuildStart,             // value = tracks to regenerate
  kRebuildProgress,          // value = percent complete (quarter crossings)
  kRebuildDone,              // value = cycles the rebuild took
  kHiccups,                  // value = tracks missed in the cycle just run
  kAdmissionRejected,        // value = 0
  kSloBreach,                // value = index of the breached SloSpec
  kSimHorizon,               // value = events processed by the Simulator
};

// Stable wire name of a kind ("disk_failed", ...).
std::string_view QosEventKindName(QosEventKind kind);

// One journal entry. `scheme` must view storage that outlives the journal
// (SchemeAbbrev literals in practice); -1 marks an inapplicable id field.
struct QosEvent {
  QosEventKind kind = QosEventKind::kDiskFailed;
  std::string_view scheme = "";
  int64_t sim_us = 0;  // simulated time (the cycle clock), microseconds
  int64_t cycle = -1;  // scheduling cycle the event belongs to
  int disk = -1;
  int cluster = -1;
  int stream = -1;
  int64_t value = 0;  // kind-specific payload, see QosEventKind

  friend bool operator==(const QosEvent&, const QosEvent&) = default;
};

// Append-only structured journal with the same zero-cost-off contract as
// MetricsRegistry: components hold a nullable EventJournal* and
// Global() is only handed out when FTMS_QOS=1 (or SetGlobalEnabled(true)),
// so a detached site costs one untaken branch. All producers append at
// cycle boundaries, failure injection and rebuild steps, which makes the
// journal byte-identical from run to run; the internal mutex merely
// guards concurrent rigs sharing the global journal.
//
// Memory is bounded: the journal keeps at most `max_events` entries
// (FTMS_QOS_MAX_EVENTS, default 262144 ≈ 11 MB) as a ring — when full,
// each append evicts the oldest event and bumps the dropped count (and
// the global ftms_qos_journal_dropped_total counter when metrics are on).
// Exports append a `journal_dropped` footer line so a truncated JSONL
// dump is self-describing. A cap of 0 means unbounded.
class EventJournal {
 public:
  static constexpr size_t kDefaultMaxEvents = 262144;

  // Reads FTMS_QOS_MAX_EVENTS (absent -> kDefaultMaxEvents, 0 -> no cap;
  // anything but a whole number warns and keeps the default).
  EventJournal();
  explicit EventJournal(size_t max_events) : max_events_(max_events) {}
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  static EventJournal& Global();
  static bool GlobalEnabled();  // FTMS_QOS=1 (cached) or SetGlobalEnabled
  static void SetGlobalEnabled(bool enabled);
  static EventJournal* GlobalIfEnabled() {
    return GlobalEnabled() ? &Global() : nullptr;
  }

  void Append(const QosEvent& event);

  std::vector<QosEvent> Snapshot() const;  // oldest retained event first
  size_t size() const;                     // events currently retained
  int64_t CountOf(QosEventKind kind) const;
  void Clear();  // drops events AND resets the dropped count

  size_t max_events() const { return max_events_; }
  int64_t dropped() const;         // events evicted by the ring cap
  int64_t total_appended() const;  // size() + dropped()

  // Last `n` retained events as JSONL lines (oldest first, no trailing
  // newline per line). `total` / `dropped` receive the retained and
  // evicted counts from the same locked view when non-null.
  std::vector<std::string> TailLines(size_t n, int64_t* total = nullptr,
                                     int64_t* dropped = nullptr) const;

  // One JSON object per line, fields in fixed order — byte-identical for
  // identical event sequences:
  //   {"kind":"disk_failed","scheme":"SR","sim_us":0,"cycle":3,
  //    "disk":2,"cluster":0,"stream":-1,"value":1}
  // When the ring cap has evicted events, a final footer line with
  // kind "journal_dropped", scheme "sim" and value = dropped() records
  // the truncation.
  std::string ToJsonl() const;
  Status WriteJsonl(const std::string& path) const;

  // Per-kind event counts as a JSON object (for bench_report's qos block).
  std::string StatsJson(const std::string& indent,
                        const std::string& close_indent) const;

 private:
  // Index of the i-th oldest retained event in the ring. Callers hold mu_.
  size_t RingIndex(size_t i) const {
    return events_.size() < max_events_ || max_events_ == 0
               ? i
               : (head_ + i) % max_events_;
  }

  mutable std::mutex mu_;
  size_t max_events_ = kDefaultMaxEvents;  // 0 = unbounded
  size_t head_ = 0;      // oldest retained event once the ring is full
  int64_t dropped_ = 0;  // events evicted by the cap
  class Counter* dropped_counter_ = nullptr;  // lazily bound global metric
  std::vector<QosEvent> events_;
};

}  // namespace ftms

#endif  // FTMS_QOS_EVENT_JOURNAL_H_
