#include "sched/cycle_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <string>

#include "util/profiler.h"

namespace ftms {

// Registry cells for one scheduler instance, resolved once at
// construction so every recording site is a pointer chase plus an atomic
// add — never a name lookup.
struct CycleScheduler::Instruments {
  MetricsRegistry* registry = nullptr;

  // Hot-path cells (written while the cycle's reads run).
  std::vector<Counter*> cluster_degraded;     // reads that hit a failed disk
  std::vector<Counter*> cluster_reconstruct;  // tracks rebuilt from parity

  // End-of-cycle cells.
  std::vector<Counter*> disk_busy;  // busy slots per disk, cumulative
  Counter* cycles = nullptr;
  Counter* data_reads = nullptr;
  Counter* parity_reads = nullptr;
  Counter* dropped_reads = nullptr;
  Counter* tracks_delivered = nullptr;
  Counter* hiccups = nullptr;
  Counter* admitted = nullptr;
  Counter* admit_rejected = nullptr;
  Gauge* active_streams = nullptr;
  Gauge* buffer_in_use = nullptr;
  Gauge* buffer_peak = nullptr;
  Gauge* failed_disks = nullptr;
  HistogramCell* queue_depth = nullptr;  // slots used per disk-cycle
  HistogramCell* cycle_wall_us = nullptr;
  SchedulerMetrics last;  // previous cycle's totals, for counter deltas
};

CycleScheduler::CycleScheduler(const SchedulerConfig& config,
                               DiskArray* disks, const Layout* layout)
    : disks_(disks), layout_(*layout), config_(config), pool_(0),
      mid_cycle_failed_(disks != nullptr ? disks->num_disks() : 0) {
  assert(disks_ != nullptr);
  slots_per_disk_ = config_.slots_per_disk > 0
                        ? config_.slots_per_disk
                        : config_.disk.TracksPerCycle(CycleSeconds());
  slots_used_.assign(static_cast<size_t>(disks_->num_disks()), 0);
  InitInstruments();
  InitQos();
  InitTimeSeries();
}

CycleScheduler::~CycleScheduler() = default;

void CycleScheduler::InitInstruments() {
  MetricsRegistry* registry = config_.metrics != nullptr
                                  ? config_.metrics
                                  : MetricsRegistry::GlobalIfEnabled();
  if (registry == nullptr) return;

  instr_ = std::make_unique<Instruments>();
  instr_->registry = registry;

  const std::string scheme(SchemeAbbrev(config_.scheme));
  const auto labeled = [&](std::string_view family) {
    return LabeledName(family, {{"scheme", scheme}});
  };
  const auto indexed = [&](std::string_view family, std::string_view key,
                           int i) {
    return LabeledName(family,
                       {{"scheme", scheme}, {key, std::to_string(i)}});
  };
  for (int c = 0; c < layout_.num_clusters(); ++c) {
    instr_->cluster_degraded.push_back(registry->GetCounter(
        indexed("ftms_sched_degraded_reads_total", "cluster", c),
        "reads attempted on a failed disk, by cluster"));
    instr_->cluster_reconstruct.push_back(registry->GetCounter(
        indexed("ftms_sched_reconstructions_total", "cluster", c),
        "tracks rebuilt on-the-fly from parity, by cluster"));
  }
  // Borrowed by the inline TryRead path; set only after the vector is
  // fully built (push_back above may reallocate).
  degraded_cells_ = instr_->cluster_degraded.data();
  for (int d = 0; d < disks_->num_disks(); ++d) {
    instr_->disk_busy.push_back(registry->GetCounter(
        indexed("ftms_sched_disk_busy_slots_total", "disk", d),
        "read slots consumed per disk (utilization series)"));
  }
  instr_->cycles = registry->GetCounter(labeled("ftms_sched_cycles_total"),
                                        "scheduling cycles completed");
  instr_->data_reads = registry->GetCounter(
      labeled("ftms_sched_data_reads_total"), "successful data-track reads");
  instr_->parity_reads =
      registry->GetCounter(labeled("ftms_sched_parity_reads_total"),
                           "successful parity-track reads");
  instr_->dropped_reads =
      registry->GetCounter(labeled("ftms_sched_dropped_reads_total"),
                           "reads displaced by slot exhaustion");
  instr_->tracks_delivered =
      registry->GetCounter(labeled("ftms_sched_tracks_delivered_total"),
                           "tracks delivered on time");
  instr_->hiccups = registry->GetCounter(labeled("ftms_sched_hiccups_total"),
                                         "tracks that missed their deadline");
  instr_->admitted =
      registry->GetCounter(labeled("ftms_sched_admitted_streams_total"),
                           "streams admitted by AddStream");
  instr_->admit_rejected =
      registry->GetCounter(labeled("ftms_sched_admission_rejected_total"),
                           "AddStream requests rejected");
  instr_->active_streams = registry->GetGauge(
      labeled("ftms_sched_active_streams"), "streams in the active state");
  instr_->buffer_in_use =
      registry->GetGauge(labeled("ftms_sched_buffer_in_use_tracks"),
                         "buffer-pool occupancy in tracks");
  instr_->buffer_peak =
      registry->GetGauge(labeled("ftms_sched_buffer_peak_tracks"),
                         "buffer-pool high-water mark in tracks");
  instr_->failed_disks = registry->GetGauge(
      labeled("ftms_sched_failed_disks"), "disks currently failed");
  instr_->queue_depth = registry->GetHistogram(
      labeled("ftms_sched_disk_queue_depth"), 0,
      static_cast<double>(slots_per_disk_) + 1, slots_per_disk_ + 1,
      "read slots consumed per disk per cycle");
  instr_->cycle_wall_us = registry->GetHistogram(
      labeled("ftms_sched_cycle_wall_us"), 0, 1e5, 50,
      "wall-clock microseconds per scheduling cycle");
  pool_.BindInstruments(instr_->buffer_in_use, instr_->buffer_peak,
                        registry->GetCounter(
                            labeled("ftms_buffer_failed_acquires_total"),
                            "buffer acquires beyond a finite capacity"));
}

void CycleScheduler::InitQos() {
  journal_ = config_.journal != nullptr ? config_.journal
                                        : EventJournal::GlobalIfEnabled();
  ledger_ = config_.ledger;
  if (ledger_ == nullptr && EventJournal::GlobalEnabled()) {
    owned_ledger_ = std::make_unique<QosLedger>();
    ledger_ = owned_ledger_.get();
  }
  qos_scheme_ = SchemeAbbrev(config_.scheme);
  if (ledger_ != nullptr) {
    if (ledger_->journal() == nullptr) ledger_->set_journal(journal_);
    if (ledger_->slos().empty()) {
      ledger_->SetSlos(DefaultSlos(config_.scheme,
                                   config_.parity_group_size));
    }
    ledger_->BindMetrics(metrics_registry(), qos_scheme_);
  }
  qos_active_ = journal_ != nullptr || ledger_ != nullptr;
}

void CycleScheduler::InitTimeSeries() {
  ts_ = config_.timeseries != nullptr
            ? config_.timeseries
            : TimeSeriesRecorder::GlobalIfEnabled();
  if (ts_ == nullptr) return;
  // Instance-numbered prefix: several rigs sharing one recorder keep
  // distinct series, and the numbering is process-deterministic so dumps
  // stay byte-identical across runs.
  static std::atomic<int> instance{0};
  ts_prefix_ =
      std::string(SchemeAbbrev(config_.scheme)) + "." +
      std::to_string(instance.fetch_add(1, std::memory_order_relaxed));
  const std::string base = "sched." + ts_prefix_ + ".";
  ts_degraded_ = ts_->DefineSeries(base + "degraded_reads");
  ts_queue_depth_ = ts_->DefineSeries(base + "disk_queue_depth_mean");
  ts_streams_ = ts_->DefineSeries(base + "active_streams");
  ts_hiccups_ = ts_->DefineSeries(base + "hiccups");
  pool_.BindTimeSeries(ts_, base + "buffer_in_use");
  if (ledger_ != nullptr) {
    ledger_->BindTimeSeries(ts_, "qos." + ts_prefix_);
  }
}

double CycleScheduler::CycleSeconds() const {
  // T_cyc = k' B / b_o; k' depends on the scheme (Section 2).
  const int k_prime = (config_.scheme == Scheme::kStreamingRaid ||
                       config_.scheme == Scheme::kImprovedBandwidth)
                          ? config_.parity_group_size - 1
                          : 1;
  return static_cast<double>(k_prime) * config_.disk.track_mb /
         config_.object_rate_mb_s;
}

StatusOr<StreamId> CycleScheduler::AddStream(const MediaObject& object) {
  FTMS_RETURN_IF_ERROR(Layout::CheckObject(object));
  const bool servable = object.num_tracks > 0 &&
                        SupportsRate(object.rate_mb_s);
  if (instr_ != nullptr) {
    (servable ? instr_->admitted : instr_->admit_rejected)->Add(1);
  }
  if (!servable && journal_ != nullptr) {
    QosEvent event;
    event.kind = QosEventKind::kAdmissionRejected;
    event.scheme = qos_scheme_;
    event.sim_us = SimTimeMicros();
    event.cycle = cycle_;
    journal_->Append(event);
  }
  if (object.num_tracks <= 0) {
    return Status::InvalidArgument("object has no tracks");
  }
  if (!servable) {
    return Status::InvalidArgument(
        "object rate not servable by this scheduler's cycle structure "
        "(base rate or, where supported, an integer multiple of it)");
  }
  const StreamId id = static_cast<StreamId>(streams_.size());
  const int32_t row = table_.AddRow(object, cycle_);
  streams_.push_back(std::make_unique<Stream>(&table_, row, id));
  DoAddStream(streams_.back().get());
  return id;
}

void CycleScheduler::RunCycle() {
  FTMS_PROF_SCOPE("sched/cycle");
  if (instr_ == nullptr) {
    StepCycle();
  } else {
    const auto wall_start = std::chrono::steady_clock::now();
    StepCycle();
    const double wall_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    SampleCycleInstruments(wall_us);
  }
  // Pull-model series (registry cells added to the recorder) sample once
  // the instruments hold this cycle, so they line up with the pushes.
  if (ts_ != nullptr) ts_->Sample(SimTimeMicros());
}

void CycleScheduler::StepCycle() {
  slots_used_.assign(slots_used_.size(), 0);
  DoRunCycle();
  // The pool is unlimited, so a failed acquire means the scheduler's own
  // accounting went wrong somewhere: loud in debug builds.
  const Status status = pool_.Acquire(pending_acquire_);
  assert(status.ok() && "buffer accounting exceeded pool capacity");
  (void)status;
  pool_.Release(pending_release_);
  pending_acquire_ = 0;
  pending_release_ = 0;
  mid_cycle_failed_.Clear();
  ++cycle_;
  ++metrics_.cycles;
  if (qos_active_) EndCycleQos();
  if (ts_ != nullptr) SampleTimeSeries();
}

void CycleScheduler::EndCycleQos() {
  FTMS_PROF_SCOPE("sched/qos");
  const int64_t completed = cycle_ - 1;
  const int64_t sim_us = SimTimeMicros();  // end of the completed cycle
  if (journal_ != nullptr) {
    if (metrics_.hiccups > journaled_hiccups_) {
      QosEvent event;
      event.kind = QosEventKind::kHiccups;
      event.scheme = qos_scheme_;
      event.sim_us = sim_us;
      event.cycle = completed;
      event.value = metrics_.hiccups - journaled_hiccups_;
      journal_->Append(event);
    }
    journaled_hiccups_ = metrics_.hiccups;
    for (size_t i = 0; i < open_transitions_.size();) {
      if (completed >= open_transitions_[i].second) {
        QosEvent event;
        event.kind = QosEventKind::kDegradedTransitionEnd;
        event.scheme = qos_scheme_;
        event.sim_us = sim_us;
        event.cycle = completed;
        event.cluster = open_transitions_[i].first;
        journal_->Append(event);
        open_transitions_.erase(open_transitions_.begin() +
                                static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  if (ledger_ != nullptr) {
    ledger_->OnCycleEnd(completed, disks_->NumFailed() > 0, qos_scheme_,
                        sim_us, streams_);
  }
}

void CycleScheduler::SampleCycleInstruments(double wall_us) {
  Instruments& in = *instr_;
  for (size_t d = 0; d < slots_used_.size(); ++d) {
    const int used = slots_used_[d];
    if (used > 0) in.disk_busy[d]->Add(used);
    in.queue_depth->Add(static_cast<double>(used));
  }
  const SchedulerMetrics& m = metrics_;
  in.cycles->Add(m.cycles - in.last.cycles);
  in.data_reads->Add(m.data_reads - in.last.data_reads);
  in.parity_reads->Add(m.parity_reads - in.last.parity_reads);
  in.dropped_reads->Add(m.dropped_reads - in.last.dropped_reads);
  in.tracks_delivered->Add(m.tracks_delivered - in.last.tracks_delivered);
  in.hiccups->Add(m.hiccups - in.last.hiccups);
  in.last = m;
  in.active_streams->Set(static_cast<double>(ActiveStreams()));
  in.failed_disks->Set(static_cast<double>(disks_->NumFailed()));
  in.cycle_wall_us->Add(wall_us);
}

void CycleScheduler::SampleTimeSeries() {
  const int64_t t = SimTimeMicros();  // end of the completed cycle
  const SchedulerMetrics& m = metrics_;
  ts_->Append(ts_degraded_, t,
              static_cast<double>(m.failed_reads - ts_last_.failed_reads));
  int64_t used_total = 0;
  for (const int used : slots_used_) used_total += used;
  ts_->Append(ts_queue_depth_, t,
              slots_used_.empty()
                  ? 0.0
                  : static_cast<double>(used_total) /
                        static_cast<double>(slots_used_.size()));
  ts_->Append(ts_streams_, t, static_cast<double>(ActiveStreams()));
  ts_->Append(ts_hiccups_, t,
              static_cast<double>(m.hiccups - ts_last_.hiccups));
  ts_last_ = m;
  pool_.SampleTimeSeries(t);
}

void CycleScheduler::RunCycles(int n) {
  for (int i = 0; i < n; ++i) RunCycle();
}

void CycleScheduler::OnDiskFailed(int disk, bool mid_cycle) {
  disks_->FailDisk(disk).ok();
  if (mid_cycle) mid_cycle_failed_.Add(disk);
  if (journal_ != nullptr) {
    const int cluster = disks_->ClusterOf(disk);
    QosEvent event;
    event.scheme = qos_scheme_;
    event.sim_us = SimTimeMicros();
    event.cycle = cycle_;
    event.disk = disk;
    event.cluster = cluster;
    event.kind = QosEventKind::kDiskFailed;
    event.value = mid_cycle ? 1 : 0;
    journal_->Append(event);
    // The degraded transition is bounded by C cycles for every scheme
    // (NC's shift window, Section 3; SR/SG/IB settle within one group
    // rotation); the end event fires at that fold or on earlier repair.
    event.kind = QosEventKind::kDegradedTransitionStart;
    event.disk = -1;
    event.value = config_.parity_group_size;
    journal_->Append(event);
    open_transitions_.emplace_back(cluster,
                                   cycle_ + config_.parity_group_size);
  }
  if (ledger_ != nullptr) ledger_->OnFailure(cycle_, mid_cycle);
  DoOnDiskFailed(disk);
}

void CycleScheduler::OnDiskRepaired(int disk) {
  disks_->RepairDisk(disk).ok();
  if (journal_ != nullptr) {
    const int cluster = disks_->ClusterOf(disk);
    QosEvent event;
    event.scheme = qos_scheme_;
    event.sim_us = SimTimeMicros();
    event.cycle = cycle_;
    event.disk = disk;
    event.cluster = cluster;
    event.kind = QosEventKind::kDiskRepaired;
    journal_->Append(event);
    // A repair closes the cluster's transition window early.
    for (size_t i = 0; i < open_transitions_.size();) {
      if (open_transitions_[i].first == cluster) {
        event.kind = QosEventKind::kDegradedTransitionEnd;
        event.disk = -1;
        event.value = 1;  // cut short by the repair
        journal_->Append(event);
        open_transitions_.erase(open_transitions_.begin() +
                                static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  DoOnDiskRepaired(disk);
}

void CycleScheduler::CountReconstruction(int cluster, int64_t n) {
  if (instr_ != nullptr) {
    instr_->cluster_reconstruct[static_cast<size_t>(cluster)]->Add(n);
  }
}

void CycleScheduler::CountDegradedRead(int cluster, int64_t n) {
  if (instr_ != nullptr) {
    instr_->cluster_degraded[static_cast<size_t>(cluster)]->Add(n);
  }
}

MetricsRegistry* CycleScheduler::metrics_registry() const {
  return instr_ != nullptr ? instr_->registry : nullptr;
}

Status CycleScheduler::PauseStream(StreamId id) {
  Stream* stream = FindStream(id);
  if (stream == nullptr) return Status::NotFound("unknown stream");
  if (stream->state() != StreamState::kActive) {
    return Status::FailedPrecondition("stream is not active");
  }
  stream->Pause();
  return Status::Ok();
}

Status CycleScheduler::ResumeStream(StreamId id) {
  Stream* stream = FindStream(id);
  if (stream == nullptr) return Status::NotFound("unknown stream");
  if (stream->state() != StreamState::kPaused) {
    return Status::FailedPrecondition("stream is not paused");
  }
  stream->Resume();
  return Status::Ok();
}

Status CycleScheduler::StopStream(StreamId id) {
  Stream* stream = FindStream(id);
  if (stream == nullptr) return Status::NotFound("unknown stream");
  if (stream->state() != StreamState::kActive &&
      stream->state() != StreamState::kPaused) {
    return Status::FailedPrecondition("stream already finished");
  }
  stream->Terminate();
  ++metrics_.terminated_streams;
  DoOnStreamStopped(stream);
  return Status::Ok();
}

Stream* CycleScheduler::FindStream(StreamId id) {
  if (id < 0 || static_cast<size_t>(id) >= streams_.size()) return nullptr;
  return streams_[static_cast<size_t>(id)].get();
}

int CycleScheduler::ActiveStreams() const {
  const StreamState* state = table_.state();
  const int32_t rows = table_.size();
  int n = 0;
  for (int32_t i = 0; i < rows; ++i) {
    if (state[i] == StreamState::kActive) ++n;
  }
  return n;
}

int CycleScheduler::LiveStreams() const {
  const StreamState* state = table_.state();
  const int32_t rows = table_.size();
  int n = 0;
  for (int32_t i = 0; i < rows; ++i) {
    if (state[i] == StreamState::kActive ||
        state[i] == StreamState::kPaused) {
      ++n;
    }
  }
  return n;
}

int64_t CycleScheduler::TotalHiccups() const {
  const int32_t rows = table_.size();
  int64_t n = 0;
  for (int32_t i = 0; i < rows; ++i) {
    n += static_cast<int64_t>(table_.hiccups(i).size());
  }
  return n;
}

}  // namespace ftms
