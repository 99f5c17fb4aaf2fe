#include "sched/streaming_raid_scheduler.h"

#include <algorithm>
#include <cassert>

#include "verify/datapath.h"

namespace ftms {

StreamingRaidScheduler::StreamingRaidScheduler(const SchedulerConfig& config,
                                               DiskArray* disks,
                                               const Layout* layout)
    : CycleScheduler(config, disks, layout) {}

void StreamingRaidScheduler::DoAddStream(Stream* stream) {
  state_.resize(std::max(state_.size(),
                         static_cast<size_t>(stream->id()) + 1));
}

void StreamingRaidScheduler::DoOnStreamStopped(Stream* stream) {
  GroupBuffer& buf = state_[static_cast<size_t>(stream->id())];
  if (buf.ready) {
    ReleaseBuffersAtCycleEnd(buf.buffered_tracks);
    buf.buffered_tracks = 0;
    buf.ready = false;
  }
}

bool StreamingRaidScheduler::RepairGroupBytes(GroupBuffer* buf,
                                              VerifyScratch* scratch) {
  if (geom_.parity_blocks == 2) {
    // Dual parity: hand every erased unit (missing data positions, P at
    // index k, Q at k+1) to the GF(2^8) codec in one call. Erased units
    // need correctly sized placeholder blocks.
    scratch->missing_units.clear();
    for (int i = 0; i < buf->tracks; ++i) {
      if (!buf->have[static_cast<size_t>(i)]) {
        buf->data[static_cast<size_t>(i)].assign(kVerifyBlockBytes, 0);
        scratch->missing_units.push_back(i);
      }
    }
    if (!buf->parity_ok) {
      buf->parity.assign(kVerifyBlockBytes, 0);
      scratch->missing_units.push_back(buf->tracks);
    }
    if (!buf->q_ok) {
      buf->qparity.assign(kVerifyBlockBytes, 0);
      scratch->missing_units.push_back(buf->tracks + 1);
    }
    if (scratch->missing_units.size() > 2) return false;
    return ReconstructPq(
               std::span<Block>(buf->data.data(),
                                static_cast<size_t>(buf->tracks)),
               &buf->parity, &buf->qparity, scratch->missing_units)
        .ok();
  }
  // Single parity: XOR of the surviving data blocks and the parity
  // block, fused into one multi-source kernel pass over the destination.
  int missing_at = -1;
  for (int i = 0; i < buf->tracks; ++i) {
    if (!buf->have[static_cast<size_t>(i)]) missing_at = i;
  }
  if (missing_at < 0) return true;
  Block rebuilt = buf->parity;
  scratch->srcs.clear();
  for (int j = 0; j < buf->tracks; ++j) {
    if (j == missing_at) continue;
    scratch->srcs.push_back(buf->data[static_cast<size_t>(j)].data());
  }
  XorIntoN(rebuilt, scratch->srcs.data(),
           static_cast<int>(scratch->srcs.size()));
  buf->data[static_cast<size_t>(missing_at)] = std::move(rebuilt);
  return true;
}

void StreamingRaidScheduler::DeliverGroup(Stream* stream, GroupBuffer* buf,
                                          VerifyScratch* scratch) {
  // Track i of the buffered group is on time if it was read, or if the
  // missing blocks are recoverable from the parity blocks present in
  // memory (on-the-fly reconstruction, Observation 2): one erasure via P
  // on single-parity layouts, any two erasures via P+Q on dual-parity.
  // `missing` was counted when the group was read; `have` is immutable
  // in between.
  const int missing = buf->missing;
  if (missing == 0 && !config_.verify_data) {
    // Healthy fast path: whole group present, one batched delivery.
    DeliverTracksOnTime(stream, buf->tracks);
    ReleaseBuffersAtCycleEnd(buf->buffered_tracks);
    buf->ready = false;
    buf->buffered_tracks = 0;
    return;
  }
  const int parity_up = (buf->parity_ok ? 1 : 0) + (buf->q_ok ? 1 : 0);
  bool can_reconstruct = missing > 0 && missing <= parity_up;
  if (can_reconstruct && config_.verify_data) {
    // Repair the actual bytes before delivery; a codec failure (which
    // the accounting above says cannot happen) falls back to hiccups.
    can_reconstruct = RepairGroupBytes(buf, scratch);
  }
  for (int i = 0; i < buf->tracks; ++i) {
    bool on_time = buf->have[static_cast<size_t>(i)];
    if (!on_time && can_reconstruct) {
      on_time = true;
      ++metrics_.reconstructed;
      CountReconstruction(geom_.GroupCluster(
          stream->object().id, geom_.GroupOf(buf->first_track)));
    }
    if (config_.verify_data && on_time) {
      ++metrics_.verified_tracks;
      SynthesizeDataBlockInto(stream->object().id, buf->first_track + i,
                              kVerifyBlockBytes, &scratch->block);
      if (buf->data[static_cast<size_t>(i)] != scratch->block) {
        ++metrics_.verify_failures;
      }
    }
    DeliverTrack(stream, on_time);
  }
  ReleaseBuffersAtCycleEnd(buf->buffered_tracks);
  buf->ready = false;
  buf->buffered_tracks = 0;
  buf->data.clear();
  buf->parity.clear();
  buf->qparity.clear();
}

void StreamingRaidScheduler::ReadNextGroup(Stream* stream, GroupBuffer* buf,
                                           VerifyScratch* scratch) {
  const int per_group = geom_.per_group;
  const int64_t first = stream->position();
  const int64_t group = geom_.GroupOf(first);
  assert(first % per_group == 0);
  const MediaObject& object = stream->object();
  const int tracks = static_cast<int>(
      std::min<int64_t>(per_group, object.num_tracks - first));

  buf->ready = true;
  buf->first_track = first;
  buf->tracks = tracks;
  buf->missing = 0;
  buf->have.assign(static_cast<size_t>(tracks), false);
  buf->parity_ok = false;

  if (config_.verify_data) {
    buf->data.resize(static_cast<size_t>(tracks));
    for (Block& block : buf->data) block.clear();
  }
  // The group is aligned (first % per_group == 0), so data position i of
  // the group is track first + i on disk i of the group's cluster.
  const int cluster = geom_.GroupCluster(object.id, group);
  for (int i = 0; i < tracks; ++i) {
    const bool ok = TryRead(geom_.DataDisk(cluster, i),
                            /*is_parity=*/false) == ReadOutcome::kOk;
    buf->have[static_cast<size_t>(i)] = ok;
    if (!ok) ++buf->missing;
    if (config_.verify_data && ok) {
      SynthesizeDataBlockInto(object.id, first + i, kVerifyBlockBytes,
                              &buf->data[static_cast<size_t>(i)]);
    }
  }
  buf->parity_ok =
      TryRead(geom_.ParityDisk(object.id, group, cluster),
              /*is_parity=*/true) == ReadOutcome::kOk;
  if (config_.verify_data && buf->parity_ok) {
    const Status status = SynthesizeParityBlockInto(
        *layout_, object.id, group, object.num_tracks, kVerifyBlockBytes,
        &buf->parity, &scratch->parity_scratch);
    if (!status.ok()) buf->parity.clear();
  }
  buf->q_ok = false;
  if (geom_.parity_blocks == 2) {
    buf->q_ok = TryRead(geom_.QParityDisk(cluster),
                        /*is_parity=*/true) == ReadOutcome::kOk;
    if (config_.verify_data && buf->q_ok) {
      const Status status = SynthesizeQParityBlockInto(
          *layout_, object.id, group, object.num_tracks, kVerifyBlockBytes,
          &buf->qparity, &scratch->parity_scratch);
      if (!status.ok()) buf->qparity.clear();
    }
  }

  // Group in memory until delivered: the data tracks plus every parity
  // track (one for SR, P and Q for SR-2).
  buf->buffered_tracks = tracks + geom_.parity_blocks;
  AcquireBuffers(buf->buffered_tracks);
}

void StreamingRaidScheduler::DoRunCycle() {
  VerifyScratch scratch;
  ForEachActiveStream([this, &scratch](Stream* stream) {
    GroupBuffer& buf = state_[static_cast<size_t>(stream->id())];
    // Delivery phase: transmit the group read in the previous cycle;
    // read phase: fetch the next group while still active.
    if (buf.ready) DeliverGroup(stream, &buf, &scratch);
    if (stream->state() == StreamState::kActive && !buf.ready &&
        !stream->finished()) {
      ReadNextGroup(stream, &buf, &scratch);
    }
  });
}

}  // namespace ftms
