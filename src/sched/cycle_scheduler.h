#ifndef FTMS_SCHED_CYCLE_SCHEDULER_H_
#define FTMS_SCHED_CYCLE_SCHEDULER_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "disk/disk_array.h"
#include "layout/layout.h"
#include "layout/schemes.h"
#include "qos/event_journal.h"
#include "qos/qos_ledger.h"
#include "stream/stream.h"
#include "util/disk_set.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/timeseries.h"
#include "util/trace_event.h"

namespace ftms {

// How the Non-clustered scheme transitions a cluster to degraded mode
// after a disk failure (Section 3).
enum class NcTransition {
  // Shift affected streams to group-at-a-time reads immediately (Figure 6):
  // all remaining tracks of every affected group move up to the failure
  // cycle, displacing originally scheduled reads when slots run out.
  kImmediateShift,
  // Delay early reads until the cycle in which they are needed for the
  // parity computation, buffering a running XOR of already-delivered
  // tracks (Figure 7). Loses fewer tracks.
  kDeferredRead,
};

// Configuration shared by all cycle-based schedulers.
struct SchedulerConfig {
  Scheme scheme = Scheme::kStreamingRaid;
  int parity_group_size = 5;          // C
  double object_rate_mb_s = 0.1875;   // b_o (uniform across streams)
  DiskParameters disk;                // timing + track size

  // Per-disk track budget per cycle; 0 derives it from the disk model
  // (TracksPerCycle of the scheme's cycle length).
  int slots_per_disk = 0;

  // NC only: transition strategy and number of shared buffer servers K.
  NcTransition nc_transition = NcTransition::kDeferredRead;
  int buffer_servers = 3;

  // IB only: read parity proactively under light load (the "sophisticated
  // scheduler" sketched at the end of Section 4). When true and slots
  // allow, parity is fetched with the data so even mid-cycle failures are
  // masked.
  bool ib_prefetch_parity = false;

  // Integrity mode (SR scheduler): carry REAL synthesized bytes through
  // the read / reconstruct / deliver pipeline and verify every delivered
  // track against ground truth. Catches wrong-group/wrong-parity wiring
  // that accounting-level simulation cannot. Costs memory and XOR time;
  // off by default.
  bool verify_data = false;

  // IB with C = 2 only: mirroring mode (paper footnote 11 — "when the
  // cluster size is 2 we effectively have mirroring and one could use
  // the two copies to get even more stream capacity"). A data read that
  // finds its primary disk fully booked spills to the replica (the
  // "parity" block, which for C = 2 is a copy) instead of dropping.
  // The footnote's caveat applies: the spilled capacity evaporates on a
  // failure, so streams admitted beyond the single-copy capacity drop.
  bool ib_mirror_read_balance = false;

  // Observability sinks. Null uses the process-wide instances, which are
  // themselves off unless FTMS_METRICS=1 / FTMS_TRACE=1 — so by default
  // every instrumentation site reduces to one untaken branch. Tests and
  // embedders pass private instances for isolation. Exported counters are
  // deterministic (see DESIGN.md "Observability"); only wall-clock
  // histograms and trace args are timing-dependent.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;

  // QoS sinks. A null journal falls back to the process-wide journal,
  // which is off unless FTMS_QOS=1 — same zero-cost-off contract as the
  // registry/tracer above. The ledger is per-scheduler state (it
  // attributes hiccups and degraded exposure to THIS scheduler's
  // streams), so with FTMS_QOS=1 and no injected ledger the scheduler
  // owns a private one, reachable via qos_ledger(). Both are fed at
  // cycle end, after every read of the cycle is settled.
  EventJournal* journal = nullptr;
  QosLedger* ledger = nullptr;

  // Time-series sink. Null falls back to the process-wide recorder,
  // which is off unless FTMS_TIMESERIES=1 — the usual zero-cost-off
  // contract. When live, the scheduler pushes per-cycle curves (degraded
  // reads, disk queue depth, active streams, hiccups, buffer occupancy)
  // from its serial cycle-end point, and RebuildManager / QosLedger
  // attach their own series through timeseries_recorder(). All pushes
  // derive from the scheduler's counters, so dumps are byte-identical
  // across runs.
  TimeSeriesRecorder* timeseries = nullptr;
};

// Counters accumulated over a run. A "hiccup" is one track that missed its
// delivery deadline; "reconstructed" counts tracks rebuilt from parity
// on-the-fly; "dropped_reads" are reads displaced by slot exhaustion.
struct SchedulerMetrics {
  int64_t cycles = 0;
  int64_t data_reads = 0;
  int64_t parity_reads = 0;
  int64_t failed_reads = 0;       // attempted on a failed disk
  int64_t dropped_reads = 0;      // no slot available
  int64_t tracks_delivered = 0;   // on time
  int64_t hiccups = 0;
  int64_t reconstructed = 0;
  int64_t terminated_streams = 0;  // degradation of service
  int64_t degradation_events = 0;
  // Improved-bandwidth shift statistics.
  int64_t shift_cascades = 0;   // number of parity-read displacements
  int64_t max_shift_depth = 0;  // longest right-shift chain observed
  // Integrity mode: delivered tracks whose bytes were checked, and
  // mismatches found (must stay 0).
  int64_t verified_tracks = 0;
  int64_t verify_failures = 0;

  friend bool operator==(const SchedulerMetrics&,
                         const SchedulerMetrics&) = default;
};

// Base class for the four cycle-based schedulers. Owns the streams and the
// per-cycle disk slot accounting; concrete schemes implement DoRunCycle().
//
// Time advances in fixed cycles of CycleSeconds(); disk failures injected
// via OnDiskFailed take effect for all reads from the next RunCycle on
// (mid_cycle=true additionally fails the reads already planned for the
// current cycle, modeling a failure in the middle of a sweep).
class CycleScheduler {
 public:
  CycleScheduler(const SchedulerConfig& config, DiskArray* disks,
                 const Layout* layout);
  virtual ~CycleScheduler();

  CycleScheduler(const CycleScheduler&) = delete;
  CycleScheduler& operator=(const CycleScheduler&) = delete;

  // Starts a new stream on `object`. The object's rate must equal the
  // configured uniform rate. Delivery begins after the scheme's startup
  // latency (first read cycle).
  StatusOr<StreamId> AddStream(const MediaObject& object);

  // Runs one scheduling cycle: read planning + execution, then delivery of
  // previously read tracks.
  void RunCycle();

  // Runs `n` cycles.
  void RunCycles(int n);

  // VCR controls. Pausing keeps the stream's buffers and admission slot
  // (bandwidth stays reserved, so resume is glitch-free); stopping
  // releases the stream's buffers immediately.
  Status PauseStream(StreamId id);
  Status ResumeStream(StreamId id);
  Status StopStream(StreamId id);

  // Failure injection. `mid_cycle` models a failure in the middle of the
  // upcoming cycle's sweep: reads planned on the disk in that cycle fail
  // after the point of no return (Section 4's IB discussion).
  void OnDiskFailed(int disk, bool mid_cycle);
  void OnDiskRepaired(int disk);

  int64_t cycle() const { return cycle_; }
  double CycleSeconds() const;
  // Simulated time at the START of the upcoming cycle, in microseconds
  // (the trace-event timeline clock).
  int64_t SimTimeMicros() const {
    return static_cast<int64_t>(static_cast<double>(cycle_) *
                                CycleSeconds() * 1e6);
  }
  int slots_per_disk() const { return slots_per_disk_; }
  const SchedulerMetrics& metrics() const { return metrics_; }
  const SchedulerConfig& config() const { return config_; }
  const BufferPool& buffer_pool() const { return pool_; }

  // Resolved observability sinks: config's pointer, else the globally
  // enabled instance, else null (= instrumentation off). RebuildManager
  // and TraceRecorder attach their own series through these.
  MetricsRegistry* metrics_registry() const;
  Tracer* tracer() const;
  // Tracer track this scheduler's spans render on; -1 when tracing is off.
  int32_t trace_tid() const;
  // Resolved QoS sinks; null when QoS observability is off.
  EventJournal* journal() const { return journal_; }
  QosLedger* qos_ledger() const { return ledger_; }
  // Resolved time-series recorder (config's, else the globally enabled
  // instance, else null) and the series-name prefix this scheduler's
  // curves use ("<SCHEME>.<instance>"). RebuildManager and QosLedger
  // attach their own series under the same prefix.
  TimeSeriesRecorder* timeseries_recorder() const { return ts_; }
  const std::string& timeseries_prefix() const { return ts_prefix_; }
  int num_clusters() const { return layout_->num_clusters(); }

  // All streams ever admitted (active and finished).
  const std::vector<std::unique_ptr<Stream>>& streams() const {
    return streams_;
  }
  Stream* FindStream(StreamId id);
  int ActiveStreams() const;
  // Streams still holding server resources: active + paused.
  int LiveStreams() const;

  // Total hiccups across all streams (== metrics().hiccups).
  int64_t TotalHiccups() const;

  // Whether this scheduler's cycle structure can serve streams of the
  // given rate (see SupportsRate).
  bool CanServeRate(double rate_mb_s) const {
    return SupportsRate(rate_mb_s);
  }

  // Read slots consumed on `disk` during the most recently completed
  // cycle (resets when the next cycle begins). The rebuild process uses
  // this to steal only idle bandwidth (rebuild mode, Section 1).
  int SlotsUsedLastCycle(int disk) const {
    return slots_used_[static_cast<size_t>(disk)];
  }

 protected:
  // Scheme-specific per-cycle work.
  virtual void DoRunCycle() = 0;
  // Scheme-specific stream initialization (phase assignment etc.).
  virtual void DoAddStream(Stream* stream) = 0;
  // Whether the scheduler can serve a stream of this rate. The default
  // cycle structure requires the configured uniform rate; schedulers
  // with per-track pacing may accept integer multiples (e.g. MPEG-2
  // streams at 3x the MPEG-1 base rate).
  virtual bool SupportsRate(double rate_mb_s) const {
    return rate_mb_s == config_.object_rate_mb_s;
  }
  // Scheme-specific failure reaction (transition planning).
  virtual void DoOnDiskFailed(int /*disk*/) {}
  virtual void DoOnDiskRepaired(int /*disk*/) {}
  // Scheme-specific cleanup when a stream stops: release its buffers.
  virtual void DoOnStreamStopped(Stream* /*stream*/) {}

  // --- helpers for subclasses ---

  enum class ReadOutcome { kOk, kFailedDisk, kNoSlot };

  // Calls `fn(stream)` for every active stream in admission (id) order,
  // the order in which a cycle's reads claim disk slots. A stream is
  // tested when the sweep reaches it, so one that finishes in an earlier
  // pass of the same cycle drops out of the later ones.
  template <typename Fn>
  void ForEachActiveStream(Fn&& fn) {
    const StreamState* state = table_.state();
    const size_t n = streams_.size();
    for (size_t i = 0; i < n; ++i) {
      if (state[i] == StreamState::kActive) fn(streams_[i].get());
    }
  }

  // Attempts one track read on `disk` in the current cycle: consumes a
  // slot, then succeeds iff the disk is up (and not failing mid-cycle).
  // Updates the metrics counters. Inline: TryRead runs once per planned
  // read — it IS the simulation's inner loop.
  ReadOutcome TryRead(int disk, bool is_parity) {
    int& used = slots_used_[static_cast<size_t>(disk)];
    if (used >= slots_per_disk_) {
      ++metrics_.dropped_reads;
      return ReadOutcome::kNoSlot;
    }
    ++used;
    if (!disks_->disk(disk).Read(1)) {
      ++metrics_.failed_reads;
      // `degraded_cells_` is non-null only with a live registry.
      if (degraded_cells_ != nullptr) {
        degraded_cells_[disks_->ClusterOf(disk)]->Add(1);
      }
      return ReadOutcome::kFailedDisk;
    }
    if (is_parity) {
      ++metrics_.parity_reads;
    } else {
      ++metrics_.data_reads;
    }
    return ReadOutcome::kOk;
  }

  // True when reads on `disk` succeed this cycle (O(1) byte load).
  bool DiskUp(int disk) const { return disks_->DiskUp(disk); }

  // True when `disk` failed in the middle of the upcoming cycle's sweep:
  // the failure is discovered too late for this cycle's read plan to react
  // (no parity substitution until the next cycle).
  bool FailedMidCycle(int disk) const {
    return mid_cycle_failed_.Contains(disk);
  }

  // Remaining slots on `disk` this cycle.
  int FreeSlots(int disk) const {
    return slots_per_disk_ - slots_used_[static_cast<size_t>(disk)];
  }

  // Records an on-time (or missed) delivery for the stream.
  void DeliverTrack(Stream* stream, bool on_time) {
    table_.DeliverRow(stream->row(), cycle_, on_time);
    if (on_time) {
      ++metrics_.tracks_delivered;
    } else {
      ++metrics_.hiccups;
    }
  }
  // `n` consecutive on-time deliveries in one call — the all-tracks-read
  // fast path of the group schedulers (identical to calling DeliverTrack
  // n times with on_time=true).
  void DeliverTracksOnTime(Stream* stream, int n) {
    table_.DeliverRowBatchOnTime(stream->row(), cycle_, n);
    metrics_.tracks_delivered += n;
  }

  // Observability: counts one on-the-fly parity reconstruction against
  // `cluster`. A single untaken branch when instrumentation is off.
  void CountReconstruction(int cluster, int64_t n = 1);

  // Counts a read that targeted a known-failed disk against `cluster`.
  // TryRead records these automatically when a read attempt hits a dead
  // disk; planners that skip the attempt entirely (NC's deferred-read
  // path) must report the skipped read here so degraded service stays
  // visible per cluster regardless of strategy.
  void CountDegradedRead(int cluster, int64_t n = 1);

  // Buffer accounting (tracks). A track transmitted during cycle t is in
  // memory until t's end (transmission overlaps the next reads), so both
  // directions settle when the cycle ends: its acquires first, then its
  // releases. The pool peak is thus the occupancy with every track of the
  // cycle in memory, which matches the paper's buffer equations (12)-(15).
  void AcquireBuffers(int64_t n) { pending_acquire_ += n; }
  void ReleaseBuffersAtCycleEnd(int64_t n) { pending_release_ += n; }

  // Structure-of-arrays stream store backing the Stream handles in
  // `streams_`; scheduler sweeps read its columns directly.
  StreamTable& stream_table() { return table_; }
  const StreamTable& stream_table() const { return table_; }

  DiskArray* disks_;
  const Layout* layout_;
  SchedulerConfig config_;
  // Devirtualized layout geometry (validated against `layout_` at
  // construction in debug builds): all per-read location math goes
  // through this, not the virtual interface.
  LayoutGeom geom_;
  SchedulerMetrics metrics_;

 private:
  // Per-disk / per-cluster registry cells and trace track, resolved once
  // at construction (see cycle_scheduler.cc). Null when both sinks are
  // off, which is what makes the hot-path checks single branches.
  struct Instruments;

  // One cycle without the wall-clock instrumentation around it.
  void StepCycle();
  void InitInstruments();
  void InitQos();
  void InitTimeSeries();
  // End-of-cycle time-series push: per-cycle degraded reads, mean disk
  // queue depth, active streams, hiccup delta and buffer occupancy.
  void SampleTimeSeries();
  // End-of-cycle QoS fold: hiccup-delta and transition-end journal
  // events, the ledger's per-stream exposure/SLO pass.
  void EndCycleQos();
  // End-of-cycle sampling: per-disk busy slots, queue-depth and
  // cycle-duration histograms, gauges, counter deltas, the cycle span.
  void SampleCycleInstruments(int64_t cycle_start_us, double wall_us);
  BufferPool pool_;  // unlimited; measures occupancy / peak
  int64_t pending_acquire_ = 0;
  int64_t pending_release_ = 0;
  // Column store first, handles after: the handles borrow table rows, so
  // declaration order keeps the table alive past every Stream destructor.
  StreamTable table_;
  std::vector<std::unique_ptr<Stream>> streams_;
  int64_t cycle_ = 0;
  int slots_per_disk_ = 0;
  // Flat per-disk slot accounting, sized once in the constructor: TryRead
  // and FreeSlots are a single array access on the hot path (no ordered
  // containers anywhere in the per-cycle machinery).
  std::vector<int> slots_used_;
  // Disks that fail mid-sweep of the next RunCycle only (DiskSet::Clear
  // is O(1) in the common failure-free cycles).
  DiskSet mid_cycle_failed_;
  std::unique_ptr<Instruments> instr_;
  // Borrowed view of Instruments::cluster_degraded for the inline read
  // path; null when the registry is off.
  Counter* const* degraded_cells_ = nullptr;
  // QoS sinks (see SchedulerConfig::journal/ledger). `qos_active_` folds
  // both null checks into the one branch RunCycle takes when QoS is off.
  EventJournal* journal_ = nullptr;
  QosLedger* ledger_ = nullptr;
  std::unique_ptr<QosLedger> owned_ledger_;
  bool qos_active_ = false;
  std::string_view qos_scheme_ = "";
  int64_t journaled_hiccups_ = 0;
  // Time-series state (see SchedulerConfig::timeseries). `ts_` is null
  // when recording is off, folding every push site into one branch.
  TimeSeriesRecorder* ts_ = nullptr;
  std::string ts_prefix_;
  int ts_degraded_ = -1;
  int ts_queue_depth_ = -1;
  int ts_streams_ = -1;
  int ts_hiccups_ = -1;
  SchedulerMetrics ts_last_;  // previous cycle-end totals for deltas
  // Open degraded transitions: cluster and the cycle its C-cycle window
  // closes (journal kDegradedTransitionEnd is emitted at that fold).
  std::vector<std::pair<int, int64_t>> open_transitions_;
};

// Creates the scheduler matching `config.scheme`.
StatusOr<std::unique_ptr<CycleScheduler>> CreateScheduler(
    const SchedulerConfig& config, DiskArray* disks, const Layout* layout);

}  // namespace ftms

#endif  // FTMS_SCHED_CYCLE_SCHEDULER_H_
