#include "server/rebuild_manager.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "layout/schemes.h"
#include "util/profiler.h"
#include "util/timeseries.h"

namespace ftms {

RebuildManager::RebuildManager(DiskArray* disks, const Layout* layout,
                               CycleScheduler* scheduler)
    : disks_(disks), layout_(layout), scheduler_(scheduler) {
  assert(disks_ != nullptr && layout_ != nullptr && scheduler_ != nullptr);
  InitInstruments();
}

void RebuildManager::InitInstruments() {
  MetricsRegistry* registry = scheduler_->metrics_registry();
  if (registry != nullptr) {
    // Label with the scheduler's actual scheme, not the layout family
    // (the clustered family serves SR, SG and NC alike).
    const std::string scheme(SchemeAbbrev(scheduler_->config().scheme));
    tracks_counter_ = registry->GetCounter(
        LabeledName("ftms_rebuild_tracks_rebuilt_total", {{"scheme", scheme}}),
        "Tracks reconstructed onto the spare disk across all rebuilds");
    completed_counter_ = registry->GetCounter(
        LabeledName("ftms_rebuilds_completed_total", {{"scheme", scheme}}),
        "Rebuilds that ran to completion and repaired the failed disk");
    stalled_cycles_counter_ = registry->GetCounter(
        LabeledName("ftms_rebuild_stalled_cycles_total", {{"scheme", scheme}}),
        "Cycles an active rebuild made no progress for lack of idle slots");
    progress_gauge_ = registry->GetGauge(
        LabeledName("ftms_rebuild_progress_ratio", {{"scheme", scheme}}),
        "Fraction of the failed disk rebuilt so far (0 when idle)");
    tracks_per_cycle_hist_ = registry->GetHistogram(
        "ftms_rebuild_tracks_per_cycle", 0.0,
        static_cast<double>(scheduler_->slots_per_disk() + 1),
        scheduler_->slots_per_disk() + 1,
        "Distribution of tracks rebuilt per cycle while a rebuild is active");
    data_bytes_counter_ = registry->GetCounter(
        LabeledName("ftms_rebuild_data_bytes_reconstructed_total",
                    {{"scheme", scheme}}),
        "Bytes of track data regenerated through the parity datapath");
  }
  journal_ = scheduler_->journal();
  ts_ = scheduler_->timeseries_recorder();
  if (ts_ != nullptr) {
    ts_progress_ = ts_->DefineSeries(
        "rebuild." + scheduler_->timeseries_prefix() + ".progress");
  }
}

// All rebuild journal events share the scheduler's scheme label and the
// rebuilt disk; `value` is kind-specific (see QosEventKind).
QosEvent RebuildManager::JournalEvent(QosEventKind kind, int disk,
                                      int64_t value) const {
  QosEvent event;
  event.kind = kind;
  event.scheme = SchemeAbbrev(scheduler_->config().scheme);
  event.sim_us = scheduler_->SimTimeMicros();
  event.cycle = scheduler_->cycle();
  event.disk = disk;
  event.cluster = disks_->ClusterOf(disk);
  event.value = value;
  return event;
}

Status RebuildManager::StartRebuild(int disk) {
  if (disk < 0 || disk >= disks_->num_disks()) {
    return Status::OutOfRange("disk id out of range");
  }
  if (Active()) {
    return Status::FailedPrecondition(
        "a rebuild is already in progress (disk " +
        std::to_string(active_disk_) + ")");
  }
  Disk& d = disks_->disk(disk);
  if (d.state() != DiskState::kFailed) {
    return Status::FailedPrecondition("disk is not failed");
  }
  // Regeneration needs enough operational sources: every one for
  // single-parity layouts; dual-parity (P+Q) layouts absorb ONE more
  // failed column — the codec repairs two erasures per group, so the
  // rebuild can run while a second cluster disk is still down.
  const int tolerated_down = layout_->parity_blocks() - 1;
  int down_sources = 0;
  for (int source : layout_->RebuildSources(disk)) {
    if (!disks_->disk(source).operational() &&
        ++down_sources > tolerated_down) {
      return Status::FailedPrecondition(
          "source disk " + std::to_string(source) +
          " is down: rebuild impossible from parity (catastrophic "
          "failure; reload from tertiary storage instead)");
    }
  }
  // Through the array so its failure columns stay in sync.
  disks_->StartRebuildDisk(disk).ok();
  active_disk_ = disk;
  if (data_attached_) PrepareDataRebuild();
  tracks_rebuilt_ = 0;
  tracks_total_ = disks_->params().TracksPerDisk();
  cycles_elapsed_ = 0;
  last_progress_quarter_ = 0;
  if (progress_gauge_ != nullptr) progress_gauge_->Set(0.0);
  if (journal_ != nullptr) {
    journal_->Append(
        JournalEvent(QosEventKind::kRebuildStart, disk, tracks_total_));
  }
  return Status::Ok();
}

void RebuildManager::AdvanceOneCycle() {
  if (!Active()) return;
  FTMS_PROF_SCOPE("rebuild/advance");
  ++cycles_elapsed_;
  // Progress is gated by the least-idle source: one idle slot on every
  // source regenerates one track (the spare's write bandwidth is never
  // the bottleneck; it serves no reads while rebuilding). Dual-parity
  // layouts keep rebuilding with one source down — that column is simply
  // skipped and the P+Q codec covers it; a second down source stalls.
  int idle = scheduler_->slots_per_disk();
  int down_sources = 0;
  const int tolerated_down = layout_->parity_blocks() - 1;
  for (int source : layout_->RebuildSources(active_disk_)) {
    if (!disks_->disk(source).operational()) {
      if (++down_sources > tolerated_down) {
        idle = 0;  // sources died mid-rebuild: stall until repaired
        break;
      }
      continue;
    }
    idle = std::min(
        idle, scheduler_->slots_per_disk() -
                  scheduler_->SlotsUsedLastCycle(source));
  }
  const int regenerated = std::max(0, idle);
  tracks_rebuilt_ += regenerated;
  if (tracks_counter_ != nullptr) {
    // Clamp the last cycle's count to the tracks actually remaining so
    // the counter total equals tracks_total_ on completion.
    tracks_counter_->Add(
        std::min<int64_t>(regenerated,
                          std::max<int64_t>(0, tracks_total_ -
                                                   (tracks_rebuilt_ -
                                                    regenerated))));
    if (regenerated == 0) stalled_cycles_counter_->Add(1);
    tracks_per_cycle_hist_->Add(static_cast<double>(regenerated));
  }
  if (data_attached_ && regenerated > 0) {
    // One batched datapath call per cycle. The completing cycle flushes
    // every remaining pending track — the spare is fully regenerated
    // when the simulated rebuild finishes.
    ReconstructDataTracks(tracks_rebuilt_ >= tracks_total_
                              ? static_cast<int>(data_pending_.size())
                              : regenerated);
  }
  if (journal_ != nullptr && tracks_rebuilt_ < tracks_total_ &&
      tracks_total_ > 0) {
    // Quarter crossings only, so long rebuilds don't flood the journal.
    const int quarter =
        static_cast<int>((tracks_rebuilt_ * 4) / tracks_total_);
    if (quarter > last_progress_quarter_) {
      last_progress_quarter_ = quarter;
      journal_->Append(JournalEvent(QosEventKind::kRebuildProgress,
                                    active_disk_,
                                    (tracks_rebuilt_ * 100) / tracks_total_));
    }
  }
  if (tracks_rebuilt_ >= tracks_total_) {
    tracks_rebuilt_ = tracks_total_;
    const int rebuilt_disk = active_disk_;
    scheduler_->OnDiskRepaired(active_disk_);
    active_disk_ = -1;
    ++rebuilds_completed_;
    if (completed_counter_ != nullptr) {
      completed_counter_->Add(1);
      progress_gauge_->Set(1.0);
    }
    if (journal_ != nullptr) {
      journal_->Append(JournalEvent(QosEventKind::kRebuildDone, rebuilt_disk,
                                    cycles_elapsed_));
    }
  } else if (progress_gauge_ != nullptr) {
    progress_gauge_->Set(Progress());
  }
  if (ts_ != nullptr) {
    // AdvanceOneCycle runs serially right after the scheduler's cycle
    // fold, so this push keeps the thread-invariance contract.
    ts_->Append(ts_progress_, scheduler_->SimTimeMicros(), Progress());
  }
}

Status RebuildManager::AttachDataPath(int object_id, int64_t object_tracks,
                                      size_t block_bytes) {
  if (object_tracks <= 0) {
    return Status::InvalidArgument("object must have at least one track");
  }
  if (block_bytes == 0) {
    return Status::InvalidArgument("block_bytes must be positive");
  }
  data_attached_ = true;
  data_object_ = object_id;
  data_object_tracks_ = object_tracks;
  data_block_bytes_ = block_bytes;
  data_tracks_reconstructed_ = 0;
  data_bytes_reconstructed_ = 0;
  data_mismatches_ = 0;
  if (Active()) PrepareDataRebuild();
  return Status::Ok();
}

void RebuildManager::PrepareDataRebuild() {
  data_pending_.clear();
  data_pos_ = 0;
  for (int64_t t = 0; t < data_object_tracks_; ++t) {
    if (layout_->DataLocation(data_object_, t).disk == active_disk_) {
      data_pending_.push_back(t);
    }
  }
  RefreshDataFailedSet();
}

void RebuildManager::RefreshDataFailedSet() {
  // The rebuilt disk plus every source currently down (dual-parity only;
  // single-parity rebuilds never run with a down source) — recomputed per
  // batch so a mid-rebuild source failure reaches the datapath's erasure
  // accounting.
  data_failed_.Clear();
  data_failed_.Add(active_disk_);
  for (int source : layout_->RebuildSources(active_disk_)) {
    if (!disks_->disk(source).operational()) data_failed_.Add(source);
  }
}

void RebuildManager::ReconstructDataTracks(int budget) {
  FTMS_PROF_SCOPE("rebuild/reconstruct");
  const int64_t remaining =
      static_cast<int64_t>(data_pending_.size()) - data_pos_;
  const int64_t take = std::min<int64_t>(budget, remaining);
  if (take <= 0) return;
  RefreshDataFailedSet();
  data_batch_.assign(data_pending_.begin() + data_pos_,
                     data_pending_.begin() + data_pos_ + take);
  data_pos_ += take;
  const Status status = ReconstructTracksInto(
      *layout_, data_object_, data_batch_, data_object_tracks_,
      data_failed_, data_block_bytes_, &data_scratch_, &data_reads_);
  if (!status.ok()) {
    // A batch that cannot reconstruct (second failure appeared) counts
    // every track as a mismatch; the simulated rebuild already stalls
    // via the idle-slot gate, so just record the damage.
    data_mismatches_ += take;
    return;
  }
  for (size_t i = 0; i < data_reads_.size(); ++i) {
    if (!DataBlockMatches(data_object_, data_batch_[i], data_block_bytes_,
                          data_reads_[i].data)) {
      ++data_mismatches_;
    }
  }
  data_tracks_reconstructed_ += take;
  data_bytes_reconstructed_ +=
      take * static_cast<int64_t>(data_block_bytes_);
  if (data_bytes_counter_ != nullptr) {
    data_bytes_counter_->Add(take *
                             static_cast<int64_t>(data_block_bytes_));
  }
}

double RebuildManager::Progress() const {
  if (tracks_total_ == 0) return 0;
  return static_cast<double>(tracks_rebuilt_) /
         static_cast<double>(tracks_total_);
}

}  // namespace ftms
