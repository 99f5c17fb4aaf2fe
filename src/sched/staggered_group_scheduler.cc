#include "sched/staggered_group_scheduler.h"

#include <algorithm>
#include <cassert>

namespace ftms {

StaggeredGroupScheduler::StaggeredGroupScheduler(
    const SchedulerConfig& config, DiskArray* disks, const Layout* layout)
    : CycleScheduler(config, disks, layout) {}

void StaggeredGroupScheduler::DoAddStream(Stream* stream) {
  state_.resize(std::max(state_.size(),
                         static_cast<size_t>(stream->id()) + 1));
  next_phase_per_cluster_.resize(
      static_cast<size_t>(layout_->num_clusters()), 0);
  SgState& st = state_[static_cast<size_t>(stream->id())];
  // Staggered phase assignment: spread each cluster's streams over the
  // C-1 read phases round-robin, so both the disk load and the memory
  // peaks are out of phase (Figure 4).
  const size_t home =
      static_cast<size_t>(geom_.HomeCluster(stream->object().id));
  st.phase = next_phase_per_cluster_[home]++ % geom_.per_group;
}

int64_t StaggeredGroupScheduler::BufferedTracksOf(StreamId id) const {
  if (id < 0 || static_cast<size_t>(id) >= state_.size()) return 0;
  return state_[static_cast<size_t>(id)].buffered_tracks;
}

void StaggeredGroupScheduler::DoOnStreamStopped(Stream* stream) {
  SgState& st = state_[static_cast<size_t>(stream->id())];
  if (st.buffered_tracks > 0) {
    ReleaseBuffersAtCycleEnd(st.buffered_tracks);
    st.buffered_tracks = 0;
  }
  st.delivered = st.tracks;  // nothing left to transmit
}

void StaggeredGroupScheduler::ReadGroup(Stream* stream, SgState* st) {
  const int per_group = geom_.per_group;
  const int64_t first = stream->position();
  assert(first % per_group == 0);
  const int64_t group = geom_.GroupOf(first);
  const MediaObject& object = stream->object();
  const int tracks = static_cast<int>(
      std::min<int64_t>(per_group, object.num_tracks - first));

  st->first_track = first;
  st->tracks = tracks;
  st->delivered = 0;
  st->missing = 0;
  st->have.assign(static_cast<size_t>(tracks), false);

  // Group-aligned read: data position i is disk i of the group's cluster.
  const int cluster = geom_.GroupCluster(object.id, group);
  for (int i = 0; i < tracks; ++i) {
    const bool ok = TryRead(geom_.DataDisk(cluster, i),
                            /*is_parity=*/false) == ReadOutcome::kOk;
    st->have[static_cast<size_t>(i)] = ok;
    if (!ok) ++st->missing;
  }
  st->parity_ok =
      TryRead(geom_.ParityDisk(object.id, group, cluster),
              /*is_parity=*/true) == ReadOutcome::kOk;

  st->buffered_tracks = tracks + 1;  // group + parity held in memory
  AcquireBuffers(st->buffered_tracks);
  st->started = true;
}

void StaggeredGroupScheduler::DeliverOne(Stream* stream, SgState* st) {
  const int i = st->delivered;
  // `missing` was counted once at ReadGroup; `have` is immutable between
  // the group read and its last delivery.
  bool on_time = st->have[static_cast<size_t>(i)];
  if (!on_time && st->missing == 1 && st->parity_ok) {
    // Entire group (minus the lost block) plus parity is in memory: the
    // missing track is rebuilt on the fly (Observation 2 holds because
    // the group was read in full before its first delivery cycle).
    on_time = true;
    ++metrics_.reconstructed;
    CountReconstruction(geom_.GroupCluster(
        stream->object().id, geom_.GroupOf(stream->position())));
  }
  DeliverTrack(stream, on_time);
  ++st->delivered;
  // The delivered track's buffer is released; the parity buffer is held
  // until the whole group has been transmitted.
  ReleaseBuffersAtCycleEnd(1);
  --st->buffered_tracks;
  if (st->delivered == st->tracks) {
    ReleaseBuffersAtCycleEnd(st->buffered_tracks);  // parity (and reconstruction) state
    st->buffered_tracks = 0;
  }
}

void StaggeredGroupScheduler::DoRunCycle() {
  // Delivery phase: one track per active stream per cycle (streams that
  // have not yet had their first read cycle are still starting up).
  ForEachActiveStream([this](Stream* stream) {
    SgState& st = state_[static_cast<size_t>(stream->id())];
    if (st.started && st.delivered < st.tracks) DeliverOne(stream, &st);
  });
  // Read phase: streams whose staggered read cycle this is fetch their
  // next whole group. The last delivery cycle of the previous group
  // overlaps the read cycle of the next (Section 2); the delivery pass
  // above already emitted this cycle's track, so on the overlap cycle the
  // old group is fully drained by now.
  ForEachActiveStream([this](Stream* stream) {
    if (stream->finished()) return;
    SgState& st = state_[static_cast<size_t>(stream->id())];
    if (IsReadCycle(st) && (!st.started || st.delivered >= st.tracks)) {
      ReadGroup(stream, &st);
    }
  });
}

}  // namespace ftms
