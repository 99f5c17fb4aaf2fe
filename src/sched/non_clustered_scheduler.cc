#include "sched/non_clustered_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ftms {

NonClusteredScheduler::NonClusteredScheduler(const SchedulerConfig& config,
                                             DiskArray* disks,
                                             const Layout* layout)
    : CycleScheduler(config, disks, layout),
      servers_(config.buffer_servers,
               /*tracks_per_server=*/config.parity_group_size + 1),
      server_attached_(static_cast<size_t>(layout->num_clusters()), false) {}

void NonClusteredScheduler::DoAddStream(Stream* stream) {
  state_.resize(std::max(state_.size(),
                         static_cast<size_t>(stream->id()) + 1));
  NcState& st = state_[static_cast<size_t>(stream->id())];
  // One group plus the largest rate-multiplier burst; sized here so the
  // per-cycle buffering path never allocates.
  st.buffered.Reserve(static_cast<size_t>(layout_->parity_group_size()) +
                      16);
  st.multiplier = RateMultiplier(*stream);
}

int NonClusteredScheduler::FailedDataIndex(int cluster) const {
  const int c = layout_->parity_group_size();
  const int data_slots = c - layout_->parity_blocks();
  for (int i = 0; i < data_slots; ++i) {
    if (!disks_->disk(cluster * c + i).operational()) return i;
  }
  return -1;
}

int NonClusteredScheduler::NumFailedData(int cluster) const {
  // O(1) from the array's per-cluster failure count: every disk of the
  // cluster except the trailing parity slot(s) is a data disk.
  const int parity_failed =
      layout_->parity_blocks() - ParityDisksUp(cluster);
  return disks_->NumFailedInCluster(cluster) - parity_failed;
}

int NonClusteredScheduler::ParityDisksUp(int cluster) const {
  const int c = layout_->parity_group_size();
  int up = 0;
  for (int s = c - layout_->parity_blocks(); s < c; ++s) {
    if (disks_->DiskUp(cluster * c + s)) ++up;
  }
  return up;
}

bool NonClusteredScheduler::CanReconstruct(int cluster) const {
  const int failed = NumFailedData(cluster);
  return failed >= 1 && failed <= ParityDisksUp(cluster);
}

bool NonClusteredScheduler::ClusterDegraded(int cluster) const {
  return NumFailedData(cluster) > 0;
}

int64_t NonClusteredScheduler::DueTrack(const Stream& stream,
                                        const NcState& st) const {
  // Reads run after the delivery phase, so `position` already names the
  // track due next cycle — exactly what normal NC operation fetches.
  (void)st;
  const int64_t t = stream.position();
  return t < stream.object().num_tracks ? t : -1;
}

bool NonClusteredScheduler::SupportsRate(double rate_mb_s) const {
  const double ratio = rate_mb_s / config_.object_rate_mb_s;
  const double rounded = std::round(ratio);
  return rounded >= 1.0 && rounded <= 16.0 &&
         std::abs(ratio - rounded) < 1e-9;
}

int NonClusteredScheduler::RateMultiplier(const Stream& stream) const {
  return static_cast<int>(
      std::round(stream.object().rate_mb_s / config_.object_rate_mb_s));
}

void NonClusteredScheduler::BufferTrack(NcState* st, int64_t track) {
  if (st->buffered.Insert(track)) AcquireBuffers(1);
}

void NonClusteredScheduler::DeliverStream(Stream* stream, NcState* st) {
  if (!st->started) return;
  // Streams at m-times the base rate transmit m tracks per cycle.
  const int multiplier = st->multiplier;
  for (int k = 0;
       k < multiplier && stream->state() == StreamState::kActive; ++k) {
    DeliverOneTrack(stream, st);
  }
}

void NonClusteredScheduler::DeliverOneTrack(Stream* stream, NcState* st) {
  const int64_t p = stream->position();
  const bool have = st->buffered.Contains(p);
  if (have) {
    st->buffered.Erase(p);
    ReleaseBuffersAtCycleEnd(1);
  }
  // Deferred strategy: while a group's reconstruction is pending, fold
  // the delivered track into the running XOR instead of discarding it.
  const int64_t group = geom_.GroupOf(p);
  if (config_.nc_transition == NcTransition::kDeferredRead &&
      st->acc_group == group && have &&
      geom_.PositionInGroup(p) == st->acc_prefix) {
    if (!st->acc_held) {
      AcquireBuffers(1);  // the accumulator buffer
      st->acc_held = true;
    }
    ++st->acc_prefix;
  }
  DeliverTrack(stream, have);
  // Drop a stale accumulator at group end (e.g. the disk was repaired
  // before the reconstruction deadline) or at stream end.
  const bool group_done =
      geom_.PositionInGroup(p) == geom_.per_group - 1;
  if ((stream->state() != StreamState::kActive || group_done) &&
      st->acc_group == group) {
    if (st->acc_held) {
      ReleaseBuffersAtCycleEnd(1);
      st->acc_held = false;
    }
    st->acc_group = -1;
    st->acc_prefix = 0;
  }
}

void NonClusteredScheduler::ReadGroupNow(Stream* stream, NcState* st,
                                         int64_t group, bool with_server) {
  const int object_id = stream->object().id;
  const int per_group = geom_.per_group;
  const int cluster = geom_.GroupCluster(object_id, group);
  const int64_t first = group * per_group;
  const int64_t last = std::min<int64_t>(first + per_group,
                                         stream->object().num_tracks);

  // Read every not-yet-buffered, not-yet-delivered track of the group.
  bool all_survivors_ok = true;
  int missing_count = 0;
  int64_t missing_tracks[2] = {-1, -1};
  for (int64_t t = std::max(first, stream->position()); t < last; ++t) {
    if (st->buffered.Contains(t)) continue;
    // Position of t within this group is t - first (the loop stays inside
    // one group), so the disk is inline arithmetic off the group cluster.
    const int disk =
        geom_.DataDisk(cluster, static_cast<int>(t - first));
    if (!DiskUp(disk)) {
      // The planner never issues reads to a known-dead disk, so record
      // the degraded read here — TryRead can't see skipped attempts.
      CountDegradedRead(cluster);
      if (missing_count < 2) missing_tracks[missing_count] = t;
      ++missing_count;
      continue;
    }
    if (TryRead(disk, /*is_parity=*/false) == ReadOutcome::kOk) {
      BufferTrack(st, t);
    } else {
      all_survivors_ok = false;
    }
  }

  // Parity read(s) + on-the-fly reconstruction of the failed block(s):
  // one parity column per missing block (P for a single erasure, P and Q
  // for the dual-parity double-erasure repair). Requires the whole rest
  // of the group in memory: every survivor just read, plus (deferred
  // strategy) the accumulated prefix of already-delivered tracks.
  // Without a buffer server the cluster has no memory to stage the
  // group, so the block(s) are lost.
  if (missing_count > 0) {
    bool prefix_ok = true;
    for (int64_t t = first; t < stream->position() && t < last; ++t) {
      // Tracks delivered before this group read must be in the XOR
      // accumulator (deferred) -- otherwise they are gone.
      prefix_ok = st->acc_group == group &&
                  st->acc_prefix >= geom_.PositionInGroup(t) + 1;
      if (!prefix_ok) break;
    }
    int parity_reads_ok = 0;
    if (CanReconstruct(cluster) && missing_count <= ParityDisksUp(cluster) &&
        with_server && prefix_ok && all_survivors_ok) {
      AcquireBuffers(missing_count);
      const int c = geom_.disks_per_cluster;
      for (int s = c - geom_.parity_blocks;
           s < c && parity_reads_ok < missing_count; ++s) {
        const int disk = geom_.DataDisk(cluster, s);
        if (!DiskUp(disk)) continue;
        if (TryRead(disk, /*is_parity=*/true) == ReadOutcome::kOk) {
          ++parity_reads_ok;
        }
      }
      // Folded into the reconstruction immediately.
      ReleaseBuffersAtCycleEnd(missing_count);
    }
    if (parity_reads_ok >= missing_count) {
      for (int m = 0; m < missing_count; ++m) {
        BufferTrack(st, missing_tracks[m]);
        ++metrics_.reconstructed;
        CountReconstruction(cluster);
      }
    }
  }

  // The group's reconstruction state is resolved; drop the accumulator.
  if (st->acc_group == group) {
    if (st->acc_held) {
      ReleaseBuffersAtCycleEnd(1);
      st->acc_held = false;
    }
    st->acc_group = -1;
    st->acc_prefix = 0;
  }
  st->started = true;
}

void NonClusteredScheduler::GroupReadStream(Stream* stream, NcState* st) {
  if (stream->state() != StreamState::kActive) return;
  const int64_t first_due = DueTrack(*stream, *st);
  if (first_due < 0) return;
  const int multiplier = st->multiplier;
  for (int k = 0; k < multiplier; ++k) {
    const int64_t due = first_due + k;
    if (due >= stream->object().num_tracks) break;
    if (st->buffered.Contains(due)) continue;
    const int64_t group = geom_.GroupOf(due);
    const int cluster =
        geom_.GroupCluster(stream->object().id, group);
    if (!ClusterDegraded(cluster)) continue;
    const bool with_server =
        server_attached_[static_cast<size_t>(cluster)];
    const int pos = geom_.PositionInGroup(due);
    const int failed = FailedDataIndex(cluster);

    if (config_.nc_transition == NcTransition::kImmediateShift) {
      // Entering the group: burst-read all of it now (Figure 6). Streams
      // caught mid-group keep their one-track-per-cycle schedule in the
      // normal pass and lose what the burst displaces.
      if (pos == 0 || !st->started) {
        ReadGroupNow(stream, st, group, with_server);
      }
    } else {
      // Deferred (Figure 7): start accumulating at group entry; when the
      // failed position comes due, read the suffix + parity just in time.
      // Mid-group streams have no accumulated prefix, so bursting could
      // not reconstruct anything — they stay on the normal schedule and
      // simply lose the failed-disk track.
      if ((pos == 0 && st->acc_group != group) && failed >= 0) {
        st->acc_group = group;
        st->acc_prefix = 0;
      }
      if (failed >= 0 && pos == failed && st->acc_group == group) {
        ReadGroupNow(stream, st, group, with_server);
      }
    }
  }
}

void NonClusteredScheduler::NormalReadStream(Stream* stream, NcState* st) {
  if (stream->state() != StreamState::kActive) return;
  const int64_t first_due = DueTrack(*stream, *st);
  if (first_due < 0) return;
  const int multiplier = st->multiplier;
  const int object_id = stream->object().id;
  const int64_t num_tracks = stream->object().num_tracks;
  for (int k = 0; k < multiplier; ++k) {
    const int64_t due = first_due + k;
    if (due >= num_tracks) break;
    if (st->buffered.Contains(due)) {
      st->started = true;  // a group read already staged this track
      continue;
    }
    const int disk = geom_.DataDiskOf(object_id, due);
    if (!DiskUp(disk)) {
      // Lost to the failure; the delivery phase will record the hiccup
      // when the track comes due.
      CountDegradedRead(geom_.ClusterOfDisk(disk));
      st->started = true;
      continue;
    }
    if (TryRead(disk, /*is_parity=*/false) == ReadOutcome::kOk) {
      BufferTrack(st, due);
    }
    st->started = true;
  }
}

void NonClusteredScheduler::DoRunCycle() {
  // Three passes in admission order: deliver, then high-priority group
  // reads, then low-priority single-track reads. With every disk up no
  // cluster is degraded, so the group-read pass is a per-stream no-op
  // (its only effects are gated on ClusterDegraded); skip it in the
  // failure-free common case.
  ForEachActiveStream([this](Stream* stream) {
    DeliverStream(stream, &state_[static_cast<size_t>(stream->id())]);
  });
  if (disks_->NumFailed() > 0) {
    ForEachActiveStream([this](Stream* stream) {
      GroupReadStream(stream, &state_[static_cast<size_t>(stream->id())]);
    });
  }
  ForEachActiveStream([this](Stream* stream) {
    NormalReadStream(stream, &state_[static_cast<size_t>(stream->id())]);
  });
}

void NonClusteredScheduler::DoOnStreamStopped(Stream* stream) {
  NcState& st = state_[static_cast<size_t>(stream->id())];
  int64_t held = st.buffered.size();
  if (st.acc_held) ++held;
  if (held > 0) ReleaseBuffersAtCycleEnd(held);
  st.buffered.Clear();
  st.acc_held = false;
  st.acc_group = -1;
  st.acc_prefix = 0;
}

void NonClusteredScheduler::DoOnDiskFailed(int disk) {
  const int cluster = disk / layout_->parity_group_size();
  const int index = disk % layout_->parity_group_size();
  const int data_slots =
      layout_->parity_group_size() - layout_->parity_blocks();
  if (index >= data_slots) return;  // parity disk (P or Q)
  if (!server_attached_[static_cast<size_t>(cluster)]) {
    if (servers_.AttachToCluster(cluster).ok()) {
      server_attached_[static_cast<size_t>(cluster)] = true;
    } else {
      // All K buffer servers busy: degradation of service (Section 5's
      // MTTDS event). The cluster runs degraded without reconstruction.
      ++metrics_.degradation_events;
    }
  }
}

void NonClusteredScheduler::DoOnDiskRepaired(int disk) {
  const int cluster = disk / layout_->parity_group_size();
  if (!ClusterDegraded(cluster) &&
      server_attached_[static_cast<size_t>(cluster)]) {
    servers_.DetachFromCluster(cluster).ok();
    server_attached_[static_cast<size_t>(cluster)] = false;
  }
}

}  // namespace ftms
