#ifndef FTMS_SERVER_REBUILD_MANAGER_H_
#define FTMS_SERVER_REBUILD_MANAGER_H_

#include <cstdint>

#include "disk/disk_array.h"
#include "layout/layout.h"
#include "sched/cycle_scheduler.h"
#include "util/status.h"
#include "verify/datapath.h"

namespace ftms {

// Rebuild mode (the third operating mode of Section 1, deferred in the
// paper, implemented here as an extension): a hot spare replaces the
// failed drive and its contents are regenerated track by track from the
// surviving parity-group members, using ONLY the bandwidth left idle by
// the stream schedule. Streams keep strict priority — the paper's
// real-time requirement — so rebuild speed adapts to load: an idle
// cluster rebuilds at full disk speed, a saturated one starves the
// rebuild (which is exactly the paper's argument for reserving capacity).
//
// While rebuilding, the drive stays non-operational for the schedulers
// (parity reconstruction continues to serve its data); on completion the
// disk is repaired and the cluster returns to normal mode.
class RebuildManager {
 public:
  // All pointers must outlive the manager.
  RebuildManager(DiskArray* disks, const Layout* layout,
                 CycleScheduler* scheduler);

  // Begins rebuilding `disk` onto a spare. The disk must currently be
  // failed, and no other rebuild may be in progress on its cluster.
  // Rebuilding requires the cluster to be reconstructible: at most this
  // one failed member for single-parity layouts, or one additional
  // failed member for dual-parity (P+Q) layouts.
  Status StartRebuild(int disk);

  // Optional byte-level rebuild: attaches the verify datapath so each
  // cycle's regenerated tracks are ACTUALLY reconstructed — every data
  // track of `object_id` resident on the rebuilt disk flows through the
  // batched ReconstructTracksInto (one call per cycle, multi-source
  // kernel folds) and is verified against the synthesized ground truth.
  // Call before or after StartRebuild; the track list is (re)derived for
  // the active disk. Simulation-only timing is unaffected — this adds
  // real byte movement for tests, benches and integrity drills.
  Status AttachDataPath(int object_id, int64_t object_tracks,
                        size_t block_bytes);

  // Byte-level rebuild observability (all zero until AttachDataPath).
  int64_t data_tracks_reconstructed() const {
    return data_tracks_reconstructed_;
  }
  int64_t data_bytes_reconstructed() const {
    return data_bytes_reconstructed_;
  }
  int64_t data_mismatches() const { return data_mismatches_; }
  int64_t data_tracks_pending() const {
    return static_cast<int64_t>(data_pending_.size()) - data_pos_;
  }

  // Advances the rebuild by one scheduling cycle; call after each
  // CycleScheduler::RunCycle(). Regenerating one track consumes one idle
  // read slot on EVERY surviving source disk (the C-2 data members plus
  // the parity holder), so progress per cycle is the minimum idle slot
  // count across the sources. Completes the rebuild (repairing the disk)
  // when all tracks are regenerated.
  void AdvanceOneCycle();

  bool Active() const { return active_disk_ >= 0; }
  int active_disk() const { return active_disk_; }
  int64_t tracks_rebuilt() const { return tracks_rebuilt_; }
  int64_t tracks_total() const { return tracks_total_; }
  int64_t cycles_elapsed() const { return cycles_elapsed_; }
  int64_t rebuilds_completed() const { return rebuilds_completed_; }

  // Fraction of the rebuild finished, in [0, 1].
  double Progress() const;

 private:
  // Derives the attached object's tracks resident on the active disk.
  void PrepareDataRebuild();
  // Rebuilt disk plus any currently-down sources (dual-parity layouts
  // run with up to one), recomputed per batch.
  void RefreshDataFailedSet();
  // Reconstructs and verifies up to `budget` pending tracks in one
  // batched datapath call.
  void ReconstructDataTracks(int budget);
  // Resolves registry cells, the journal and the progress series from
  // the scheduler's observability sinks (no-op when they are off).
  void InitInstruments();
  QosEvent JournalEvent(QosEventKind kind, int disk, int64_t value) const;

  DiskArray* disks_;
  const Layout* layout_;
  CycleScheduler* scheduler_;

  int active_disk_ = -1;
  int64_t tracks_rebuilt_ = 0;
  int64_t tracks_total_ = 0;
  int64_t cycles_elapsed_ = 0;
  int64_t rebuilds_completed_ = 0;

  // Byte-level rebuild state (inactive until AttachDataPath).
  bool data_attached_ = false;
  int data_object_ = 0;
  int64_t data_object_tracks_ = 0;
  size_t data_block_bytes_ = 0;
  std::vector<int64_t> data_pending_;  // object tracks on the rebuilt disk
  int64_t data_pos_ = 0;               // next pending index
  std::vector<int64_t> data_batch_;    // this cycle's batch (reused)
  std::vector<TrackRead> data_reads_;  // batch outputs (reused)
  DegradedReadScratch data_scratch_;
  DiskSet data_failed_;
  int64_t data_tracks_reconstructed_ = 0;
  int64_t data_bytes_reconstructed_ = 0;
  int64_t data_mismatches_ = 0;
  Counter* data_bytes_counter_ = nullptr;

  // Observability (null = off). The journal gets start /
  // quarter-progress / done events, which `ftms report --chrome` renders
  // as one span per rebuild.
  EventJournal* journal_ = nullptr;
  int last_progress_quarter_ = 0;
  Counter* tracks_counter_ = nullptr;
  Counter* completed_counter_ = nullptr;
  Counter* stalled_cycles_counter_ = nullptr;
  Gauge* progress_gauge_ = nullptr;
  HistogramCell* tracks_per_cycle_hist_ = nullptr;
  TimeSeriesRecorder* ts_ = nullptr;
  int ts_progress_ = -1;
};

}  // namespace ftms

#endif  // FTMS_SERVER_REBUILD_MANAGER_H_
