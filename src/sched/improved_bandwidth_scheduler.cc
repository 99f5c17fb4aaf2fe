#include "sched/improved_bandwidth_scheduler.h"

#include <algorithm>
#include <cassert>

namespace ftms {

ImprovedBandwidthScheduler::ImprovedBandwidthScheduler(
    const SchedulerConfig& config, DiskArray* disks, const Layout* layout)
    : CycleScheduler(config, disks, layout) {
  plan_.resize(static_cast<size_t>(disks->num_disks()));
}

void ImprovedBandwidthScheduler::DoAddStream(Stream* stream) {
  const size_t n = static_cast<size_t>(stream->id()) + 1;
  state_.resize(std::max(state_.size(), n));
  missing_count_.resize(std::max(missing_count_.size(), n), 0);
  parity_planned_.resize(std::max(parity_planned_.size(), n), false);
}

void ImprovedBandwidthScheduler::DoOnStreamStopped(Stream* stream) {
  GroupBuffer& buf = state_[static_cast<size_t>(stream->id())];
  if (buf.ready) {
    ReleaseBuffersAtCycleEnd(buf.buffered_tracks);
    buf.buffered_tracks = 0;
    buf.ready = false;
  }
}

void ImprovedBandwidthScheduler::DeliverGroup(Stream* stream,
                                              GroupBuffer* buf) {
  // `have_count` was maintained at plan commit, so no rescan of `have`.
  const int missing = buf->tracks - buf->have_count;
  if (missing == 0) {
    // Healthy fast path: the whole group arrived; deliver it in one
    // batched column update.
    DeliverTracksOnTime(stream, buf->tracks);
    ReleaseBuffersAtCycleEnd(buf->buffered_tracks);
    buf->ready = false;
    buf->buffered_tracks = 0;
    return;
  }
  const bool can_reconstruct = missing == 1 && buf->parity_ok;
  for (int i = 0; i < buf->tracks; ++i) {
    bool on_time = buf->have[static_cast<size_t>(i)];
    if (!on_time && can_reconstruct) {
      on_time = true;
      ++metrics_.reconstructed;
      CountReconstruction(geom_.GroupCluster(
          stream->object().id, geom_.GroupOf(buf->first_track)));
    }
    DeliverTrack(stream, on_time);
  }
  ReleaseBuffersAtCycleEnd(buf->buffered_tracks);
  buf->ready = false;
  buf->buffered_tracks = 0;
}

void ImprovedBandwidthScheduler::PlanStreamReads(Stream* stream,
                                                 GroupBuffer* buf) {
  if (stream->state() != StreamState::kActive || stream->finished()) {
    return;
  }
  if (buf->ready) return;  // still holding an undelivered group
  const int per_group = geom_.per_group;
  const int64_t first = stream->position();
  const MediaObject& object = stream->object();
  const int tracks = static_cast<int>(
      std::min<int64_t>(per_group, object.num_tracks - first));
  buf->ready = true;
  buf->first_track = first;
  buf->tracks = tracks;
  buf->have_count = 0;
  buf->have.assign(static_cast<size_t>(tracks), false);
  buf->parity_ok = false;
  buf->buffered_tracks = 0;

  // Delivery always consumes whole groups, so `first` is group-aligned
  // and data position i of the group is disk i of the group's cluster.
  assert(first % per_group == 0);
  const int cluster = geom_.GroupCluster(object.id, geom_.GroupOf(first));
  for (int i = 0; i < tracks; ++i) {
    const int disk = geom_.DataDisk(cluster, i);
    auto& disk_plan = plan_[static_cast<size_t>(disk)];
    if (!PlannerSeesUp(disk)) {
      // Known failure: skip the read; parity substitution follows in
      // PlanFailureParity().
      ++missing_count_[static_cast<size_t>(stream->id())];
      continue;
    }
    if (static_cast<int>(disk_plan.size()) >= slots_per_disk()) {
      if (config_.ib_mirror_read_balance &&
          config_.parity_group_size == 2) {
        // Mirroring (footnote 11): spill the read to the replica. The
        // block is "missing" from the primary; PlanFailureParity's
        // machinery places the copy read on the neighbor cluster and
        // DeliverGroup's reconstruction (XOR of a single survivor set,
        // i.e. the copy itself) serves it.
        ++missing_count_[static_cast<size_t>(stream->id())];
        continue;
      }
      // Overcommitted disk (admission violation): a plain deadline
      // miss. The parity substitution is reserved for FAILURES; it
      // must not silently absorb oversubscription (the bandwidth it
      // would use is exactly the reserve that masks real failures).
      ++metrics_.dropped_reads;
      buf->have[static_cast<size_t>(i)] = false;  // lost for this cycle
      continue;
    }
    disk_plan.push_back(PlannedRead{stream->id(), i, false});
  }
}

bool ImprovedBandwidthScheduler::PlaceParityRead(StreamId stream,
                                                 int depth) {
  metrics_.max_shift_depth =
      std::max<int64_t>(metrics_.max_shift_depth, depth);
  if (depth > layout_->num_clusters()) {
    // The shift wrapped all the way around without finding idle capacity.
    return false;
  }
  Stream* s = FindStream(stream);
  const GroupBuffer& buf = state_[static_cast<size_t>(stream)];
  const int64_t group = geom_.GroupOf(buf.first_track);
  const int object_id = s->object().id;
  const int parity_disk = geom_.ParityDisk(
      object_id, group, geom_.GroupCluster(object_id, group));
  if (!PlannerSeesUp(parity_disk)) {
    // Parity disk itself is down: a second failure in an adjacent
    // cluster — catastrophic for this group (Section 4).
    return false;
  }
  auto& disk_plan = plan_[static_cast<size_t>(parity_disk)];
  if (static_cast<int>(disk_plan.size()) < slots_per_disk()) {
    disk_plan.push_back(PlannedRead{stream, 0, true});
    parity_planned_[static_cast<size_t>(stream)] = true;
    return true;
  }
  // No idle slot: drop one LOCAL data read whose group is still complete
  // (never remove a second block from any parity group), then push the
  // victim's parity requirement one cluster further right.
  for (size_t i = 0; i < disk_plan.size(); ++i) {
    const PlannedRead victim = disk_plan[i];
    if (victim.parity) continue;
    if (missing_count_[static_cast<size_t>(victim.stream)] > 0) continue;
    disk_plan.erase(disk_plan.begin() + static_cast<long>(i));
    ++missing_count_[static_cast<size_t>(victim.stream)];
    ++metrics_.shift_cascades;
    if (!PlaceParityRead(victim.stream, depth + 1)) {
      // Cascade failed downstream: the victim's track is lost this cycle.
      ++metrics_.degradation_events;
    }
    disk_plan.push_back(PlannedRead{stream, 0, true});
    parity_planned_[static_cast<size_t>(stream)] = true;
    return true;
  }
  return false;  // only parity reads here; nothing droppable
}

void ImprovedBandwidthScheduler::PlanFailureParity() {
  // Dense state-column scan; rows are admission-ordered StreamIds.
  const StreamState* state = stream_table().state();
  const int32_t rows = stream_table().size();
  for (int32_t id = 0; id < rows; ++id) {
    if (state[id] != StreamState::kActive) continue;
    if (missing_count_[static_cast<size_t>(id)] == 1 &&
        !parity_planned_[static_cast<size_t>(id)]) {
      if (!PlaceParityRead(id, 0)) {
        ++metrics_.degradation_events;
      }
    }
  }
}

void ImprovedBandwidthScheduler::PlanPrefetchParity() {
  if (!config_.ib_prefetch_parity) return;
  const StreamState* state = stream_table().state();
  const int32_t* object_id = stream_table().object_id();
  const int32_t rows = stream_table().size();
  for (int32_t id = 0; id < rows; ++id) {
    if (state[id] != StreamState::kActive) continue;
    const GroupBuffer& buf = state_[static_cast<size_t>(id)];
    if (!buf.ready || parity_planned_[static_cast<size_t>(id)]) continue;
    const int64_t group = geom_.GroupOf(buf.first_track);
    const int parity_disk = geom_.ParityDisk(
        object_id[id], group, geom_.GroupCluster(object_id[id], group));
    auto& disk_plan = plan_[static_cast<size_t>(parity_disk)];
    if (PlannerSeesUp(parity_disk) &&
        static_cast<int>(disk_plan.size()) < slots_per_disk()) {
      disk_plan.push_back(PlannedRead{id, 0, true});
      parity_planned_[static_cast<size_t>(id)] = true;
    }
  }
}

void ImprovedBandwidthScheduler::ExecutePlan() {
  // One pass in disk order: each planned read claims its slot, and one
  // that succeeds lands in its stream's group buffer, which takes one
  // pool buffer for it.
  for (int disk = 0; disk < disks_->num_disks(); ++disk) {
    for (const PlannedRead& read : plan_[static_cast<size_t>(disk)]) {
      if (TryRead(disk, read.parity) != ReadOutcome::kOk) continue;
      GroupBuffer& buf = state_[static_cast<size_t>(read.stream)];
      ++buf.buffered_tracks;
      AcquireBuffers(1);
      if (read.parity) {
        buf.parity_ok = true;
      } else {
        buf.have[static_cast<size_t>(read.pos)] = true;
        ++buf.have_count;
      }
    }
    plan_[static_cast<size_t>(disk)].clear();
  }
}

void ImprovedBandwidthScheduler::DoRunCycle() {
  std::fill(missing_count_.begin(), missing_count_.end(), 0);
  std::fill(parity_planned_.begin(), parity_planned_.end(), false);
  // Deliver the groups read last cycle, plan this cycle's data reads in
  // admission order, place parity reads (the right-shift cascade), then
  // execute the plan.
  ForEachActiveStream([this](Stream* stream) {
    GroupBuffer& buf = state_[static_cast<size_t>(stream->id())];
    if (buf.ready) DeliverGroup(stream, &buf);
  });
  ForEachActiveStream([this](Stream* stream) {
    PlanStreamReads(stream, &state_[static_cast<size_t>(stream->id())]);
  });
  PlanFailureParity();
  PlanPrefetchParity();
  ExecutePlan();
}

}  // namespace ftms
