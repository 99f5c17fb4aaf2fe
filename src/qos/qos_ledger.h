#ifndef FTMS_QOS_QOS_LEDGER_H_
#define FTMS_QOS_QOS_LEDGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "layout/schemes.h"
#include "qos/event_journal.h"
#include "stream/stream.h"
#include "util/metrics.h"

namespace ftms {

class TimeSeriesRecorder;

// Per-stream QoS facts distilled from a scheduler's streams plus the
// ledger's own degraded-exposure accounting. The paper's guarantees are
// per-viewer — "which streams hiccup, and how often" — so this is the
// record everything downstream (SLOs, watchdog, CLI, drill) consumes.
struct StreamQosRecord {
  StreamId id = -1;
  StreamState state = StreamState::kActive;
  int64_t admitted_cycle = 0;
  int64_t first_delivered_cycle = -1;  // -1 = nothing delivered yet
  int64_t startup_cycles = -1;         // admission -> first delivery
  int64_t delivered = 0;
  int64_t hiccups = 0;
  int64_t degraded_cycles = 0;  // active cycles spent with a disk down
  // delivered / (delivered + hiccups); 1 when nothing was due yet.
  double continuity = 1.0;
};

// Declarative service-level objective over a run's StreamQosRecords.
enum class SloKind {
  kMaxHiccupsPerStream,  // worst single stream's hiccup count, scaled
                         // per failure ("<=1 hiccup per stream per failure")
  kMaxTotalHiccups,      // aggregate hiccups, scaled per failure
  kMaxStartupP99Cycles,  // p99 of admission-to-first-delivery latency
  kMinContinuity,        // worst single stream's continuity ratio
};

struct SloSpec {
  std::string name;
  SloKind kind = SloKind::kMaxHiccupsPerStream;
  double bound = 0;
  // When true the bound multiplies by max(1, failures observed): the
  // paper states its loss bounds per failure event.
  bool per_failure = false;
};

// One SLO's evaluation. `budget_burn` is the fraction of the error budget
// consumed (observed / effective bound; for kMinContinuity the budget is
// the allowed continuity shortfall 1 - bound). burn >= 1 means breached;
// a zero-bound SLO burns 0 or infinity-clamped-to-(observed+1).
struct SloStatus {
  SloSpec spec;
  double effective_bound = 0;  // bound after per-failure scaling
  double observed = 0;
  double budget_burn = 0;
  bool breached = false;
};

// Builds per-stream records from a scheduler's stream table. The optional
// `degraded_cycles` array (indexed by StreamId) supplies the ledger's
// exposure counts; pass empty when no ledger ran.
std::vector<StreamQosRecord> CaptureStreamQos(
    std::span<const std::unique_ptr<Stream>> streams,
    std::span<const int64_t> degraded_cycles = {});

// Evaluates `slos` against the records. `failures` scales per-failure
// bounds (clamped to >= 1).
std::vector<SloStatus> EvaluateSlos(
    const std::vector<StreamQosRecord>& records,
    const std::vector<SloSpec>& slos, int64_t failures);

// The paper's guarantees as default SLOs for `scheme` with parity group
// size C: SR/SG mask single failures entirely (0 hiccups), IB leaves at
// most one isolated hiccup per stream per failure, NC loses at most C-2
// tracks on the worst-placed stream per failure (Section 3's immediate
// shift); all schemes must start delivery within 2C cycles of admission.
std::vector<SloSpec> DefaultSlos(Scheme scheme, int parity_group_size);

// Attributes QoS facts to streams. One ledger observes ONE scheduler: the
// scheduler calls OnFailure / OnCycleEnd only at failure injection sites
// and at cycle end, so every exported number and DumpJson() byte is
// identical from run to run.
//
// SLOs are re-evaluated each cycle; a transition into breach appends one
// kSloBreach journal event (per SLO, edge-triggered) and the current
// breach count / per-SLO budget burn are exported through the bound
// MetricsRegistry.
class QosLedger {
 public:
  QosLedger() = default;
  QosLedger(const QosLedger&) = delete;
  QosLedger& operator=(const QosLedger&) = delete;

  void set_journal(EventJournal* journal) { journal_ = journal; }
  EventJournal* journal() const { return journal_; }

  void SetSlos(std::vector<SloSpec> slos);
  const std::vector<SloSpec>& slos() const { return slos_; }

  // Registers the ledger's gauges ("ftms_qos_*", labeled by scheme).
  // Null registry detaches metric export.
  void BindMetrics(MetricsRegistry* registry, std::string_view scheme);

  // Time-series hook: per-cycle max SLO budget burn and active breach
  // count, as `<prefix>.slo_burn_max` / `<prefix>.active_breaches`.
  // Pushed from OnCycleEnd at the scheduler's cycle end. Null recorder
  // detaches.
  void BindTimeSeries(TimeSeriesRecorder* recorder,
                      const std::string& prefix);

  // Failure-injection hook (serial; called from OnDiskFailed).
  void OnFailure(int64_t cycle, bool mid_cycle);

  // End-of-cycle fold (serial). `cycle` is the index of the cycle that
  // just completed; `degraded` when any disk was failed during it.
  void OnCycleEnd(int64_t cycle, bool degraded, std::string_view scheme,
                  int64_t sim_us,
                  std::span<const std::unique_ptr<Stream>> streams);

  int64_t cycles_observed() const { return cycles_observed_; }
  int64_t failures_observed() const { return failures_observed_; }
  int64_t degraded_stream_cycles() const { return degraded_stream_cycles_; }
  int64_t active_breaches() const { return active_breaches_; }
  int64_t breach_events() const { return breach_events_; }
  int64_t degraded_cycles(StreamId id) const;
  std::span<const int64_t> degraded_cycles_by_stream() const {
    return degraded_cycles_;
  }

  std::vector<StreamQosRecord> Capture(
      std::span<const std::unique_ptr<Stream>> streams) const {
    return CaptureStreamQos(streams, degraded_cycles_);
  }
  std::vector<SloStatus> Evaluate(
      std::span<const std::unique_ptr<Stream>> streams) const {
    return EvaluateSlos(Capture(streams), slos_, failures_observed_);
  }

  // Deterministic JSON dump of the per-stream records, SLO statuses and
  // ledger totals (the repeatability contract is tested on these bytes).
  std::string DumpJson(std::span<const std::unique_ptr<Stream>> streams,
                       const std::string& indent = "  ") const;

 private:
  EventJournal* journal_ = nullptr;
  std::vector<SloSpec> slos_;
  std::vector<bool> slo_breached_;  // edge detection, parallel to slos_

  int64_t cycles_observed_ = 0;
  int64_t failures_observed_ = 0;
  int64_t degraded_stream_cycles_ = 0;
  int64_t active_breaches_ = 0;
  int64_t breach_events_ = 0;
  std::vector<int64_t> degraded_cycles_;  // indexed by StreamId

  // Exported cells (null = metrics detached).
  Gauge* worst_hiccups_gauge_ = nullptr;
  Gauge* streams_with_hiccups_gauge_ = nullptr;
  Gauge* active_breaches_gauge_ = nullptr;
  Gauge* degraded_stream_cycles_gauge_ = nullptr;
  Counter* breach_events_counter_ = nullptr;
  std::vector<Gauge*> burn_gauges_;  // parallel to slos_
  MetricsRegistry* registry_ = nullptr;
  std::string metrics_scheme_;

  TimeSeriesRecorder* ts_ = nullptr;
  int ts_burn_max_ = -1;
  int ts_active_breaches_ = -1;
};

// Formatting helpers shared by ftms_cli, failure_drill and StatusLine.
int64_t WorstStreamHiccups(const std::vector<StreamQosRecord>& records);
int64_t CountBreaches(const std::vector<SloStatus>& statuses);

}  // namespace ftms

#endif  // FTMS_QOS_QOS_LEDGER_H_
