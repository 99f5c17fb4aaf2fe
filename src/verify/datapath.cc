#include "verify/datapath.h"

#include <algorithm>
#include <string>

#include "parity/pq_kernels.h"

namespace ftms {
namespace {

// The synthesis seed of data track `track` of `object_id`: word i of the
// block is SynthMix(seed + i).
uint64_t DataBlockSeed(int object_id, int64_t track) {
  return SynthMix(
      (static_cast<uint64_t>(static_cast<uint32_t>(object_id)) << 32) ^
      static_cast<uint64_t>(track));
}

// Extent of parity group `group`: first member track and member count
// (short final groups have fewer).
void GroupExtent(const Layout& layout, int64_t group, int64_t object_tracks,
                 int64_t* first, int* members) {
  const int per_group = layout.DataBlocksPerGroup();
  *first = group * per_group;
  *members = static_cast<int>(
      std::min<int64_t>(*first + per_group, object_tracks) - *first);
}

// Synthesizes the `members` group member blocks starting at `first` into
// scratch->group (slot capacity reused across calls).
void SynthesizeGroupMembers(int object_id, int64_t first, int members,
                            size_t block_bytes,
                            DegradedReadScratch* scratch) {
  if (scratch->group.size() < static_cast<size_t>(members)) {
    scratch->group.resize(static_cast<size_t>(members));
  }
  for (int m = 0; m < members; ++m) {
    SynthesizeDataBlockInto(object_id, first + m, block_bytes,
                            &scratch->group[static_cast<size_t>(m)]);
  }
}

// Emulates the degraded read's byte movement from the members in
// scratch->group: the parity-block read is the XOR of every member, the
// missing block is parity XOR the survivors. Both folds are fused into
// one seed copy plus a single multi-source pass over *out.
void ReconstructFromGroup(int missing, int members,
                          DegradedReadScratch* scratch, Block* out) {
  const std::vector<Block>& group = scratch->group;
  out->assign(group[0].begin(), group[0].end());
  scratch->srcs.clear();
  for (int m = 1; m < members; ++m) {
    scratch->srcs.push_back(group[static_cast<size_t>(m)].data());
  }
  for (int m = 0; m < members; ++m) {
    if (m == missing) continue;
    scratch->srcs.push_back(group[static_cast<size_t>(m)].data());
  }
  XorIntoN(*out, scratch->srcs.data(),
           static_cast<int>(scratch->srcs.size()));
}

// Dual-parity degraded path: collects the group's erased unit indices
// (data positions, then `members` for P and `members`+1 for Q), checks
// the two-erasure bound, and repairs the whole group in place via the
// GF(2^8) P+Q codec. On success scratch->group[0..members) holds every
// member's true bytes and scratch->repaired_group records the group, so
// batched callers serve later tracks of the same group by copy.
Status RepairGroupPq(const Layout& layout, int object_id, int64_t group,
                     int64_t first, int members,
                     const DiskSet& failed_disks, size_t block_bytes,
                     DegradedReadScratch* scratch) {
  scratch->repaired_group = -1;
  scratch->missing.clear();
  for (int m = 0; m < members; ++m) {
    if (failed_disks.Contains(
            layout.DataLocation(object_id, first + m).disk)) {
      scratch->missing.push_back(m);
    }
  }
  const bool p_down =
      failed_disks.Contains(layout.ParityLocation(object_id, group).disk);
  const bool q_down =
      failed_disks.Contains(layout.QParityLocation(object_id, group).disk);
  if (static_cast<int>(scratch->missing.size()) + (p_down ? 1 : 0) +
          (q_down ? 1 : 0) >
      2) {
    return Status::Unavailable(
        "more than two units of the group are down: catastrophic");
  }
  if (p_down) scratch->missing.push_back(members);
  if (q_down) scratch->missing.push_back(members + 1);
  // P and Q as the write path would have stored them: syndromes of the
  // TRUE group contents. Then clobber every erased unit so the bytes the
  // caller receives provably come out of the codec, not the synthesizer.
  SynthesizeGroupMembers(object_id, first, members, block_bytes, scratch);
  FTMS_RETURN_IF_ERROR(ComputePq(
      std::span<const Block>(scratch->group.data(),
                             static_cast<size_t>(members)),
      &scratch->p, &scratch->q));
  for (const int u : scratch->missing) {
    Block& b = u < members ? scratch->group[static_cast<size_t>(u)]
                           : (u == members ? scratch->p : scratch->q);
    std::fill(b.begin(), b.end(), uint8_t{0xEE});
  }
  FTMS_RETURN_IF_ERROR(ReconstructPq(
      std::span<Block>(scratch->group.data(),
                       static_cast<size_t>(members)),
      &scratch->p, &scratch->q, scratch->missing));
  scratch->repaired_group = group;
  return Status::Ok();
}

// Shared precheck of the degraded path: parity disk up, every other
// group member's disk up. `track` is the member being reconstructed.
Status CheckGroupReconstructible(const Layout& layout, int object_id,
                                 int64_t track, int64_t group,
                                 int64_t first, int members,
                                 const DiskSet& failed_disks) {
  const BlockLocation parity_loc = layout.ParityLocation(object_id, group);
  if (failed_disks.Contains(parity_loc.disk)) {
    return Status::Unavailable(
        "parity disk for the group is also down: catastrophic");
  }
  for (int m = 0; m < members; ++m) {
    const int64_t t = first + m;
    if (t == track) continue;
    if (failed_disks.Contains(layout.DataLocation(object_id, t).disk)) {
      return Status::Unavailable(
          "two data blocks of the group are down: catastrophic");
    }
  }
  return Status::Ok();
}

}  // namespace

void SynthesizeDataBlockInto(int object_id, int64_t track,
                             size_t block_bytes, Block* out) {
  out->resize(block_bytes);
  ActivePqKernel().synth(out->data(), DataBlockSeed(object_id, track),
                         block_bytes);
}

bool DataBlockMatches(int object_id, int64_t track, size_t block_bytes,
                      const Block& block) {
  return block.size() == block_bytes &&
         ActivePqKernel().synth_matches(
             block.data(), DataBlockSeed(object_id, track), block_bytes);
}

Block SynthesizeDataBlock(int object_id, int64_t track,
                          size_t block_bytes) {
  Block block;
  SynthesizeDataBlockInto(object_id, track, block_bytes, &block);
  return block;
}

Status SynthesizeParityBlockInto(const Layout& layout, int object_id,
                                 int64_t group, int64_t object_tracks,
                                 size_t block_bytes, Block* out,
                                 DegradedReadScratch* scratch) {
  int64_t first;
  int members;
  GroupExtent(layout, group, object_tracks, &first, &members);
  if (first >= object_tracks) {
    return Status::OutOfRange("group beyond object end");
  }
  SynthesizeGroupMembers(object_id, first, members, block_bytes, scratch);
  out->assign(scratch->group[0].begin(), scratch->group[0].end());
  scratch->srcs.clear();
  for (int m = 1; m < members; ++m) {
    scratch->srcs.push_back(scratch->group[static_cast<size_t>(m)].data());
  }
  XorIntoN(*out, scratch->srcs.data(),
           static_cast<int>(scratch->srcs.size()));
  return Status::Ok();
}

Status SynthesizeQParityBlockInto(const Layout& layout, int object_id,
                                  int64_t group, int64_t object_tracks,
                                  size_t block_bytes, Block* out,
                                  DegradedReadScratch* scratch) {
  if (layout.parity_blocks() != 2) {
    return Status::InvalidArgument(
        "layout has no Q parity column");
  }
  int64_t first;
  int members;
  GroupExtent(layout, group, object_tracks, &first, &members);
  if (first >= object_tracks) {
    return Status::OutOfRange("group beyond object end");
  }
  SynthesizeGroupMembers(object_id, first, members, block_bytes, scratch);
  FTMS_RETURN_IF_ERROR(ComputePq(
      std::span<const Block>(scratch->group.data(),
                             static_cast<size_t>(members)),
      &scratch->p, out));
  scratch->repaired_group = -1;  // scratch->p was overwritten
  return Status::Ok();
}

StatusOr<Block> SynthesizeParityBlock(const Layout& layout, int object_id,
                                      int64_t group, int64_t object_tracks,
                                      size_t block_bytes) {
  Block parity;
  DegradedReadScratch scratch;
  const Status status = SynthesizeParityBlockInto(
      layout, object_id, group, object_tracks, block_bytes, &parity,
      &scratch);
  if (!status.ok()) return status;
  return parity;
}

Status ReadTrackDegradedInto(const Layout& layout, int object_id,
                             int64_t track, int64_t object_tracks,
                             const DiskSet& failed_disks,
                             size_t block_bytes,
                             DegradedReadScratch* scratch, TrackRead* out) {
  if (track < 0 || track >= object_tracks) {
    return Status::OutOfRange("track beyond object end");
  }
  const BlockLocation loc = layout.DataLocation(object_id, track);
  out->reconstructed = false;
  if (!failed_disks.Contains(loc.disk)) {
    SynthesizeDataBlockInto(object_id, track, block_bytes, &out->data);
    return Status::Ok();
  }
  // Degraded path (Observation 2's on-the-fly reconstruction): the lost
  // block is parity XOR survivors. Parity is itself the XOR of every
  // group member, so the fused fold streams each member once for the
  // parity contribution and each SURVIVOR a second time — the survivors
  // cancel, leaving exactly the missing block, in a single pass over the
  // destination.
  const int64_t group = layout.GroupOf(track);
  int64_t first;
  int members;
  GroupExtent(layout, group, object_tracks, &first, &members);
  if (layout.parity_blocks() == 2) {
    FTMS_RETURN_IF_ERROR(RepairGroupPq(layout, object_id, group, first,
                                       members, failed_disks, block_bytes,
                                       scratch));
    const Block& repaired =
        scratch->group[static_cast<size_t>(track - first)];
    out->data.assign(repaired.begin(), repaired.end());
    out->reconstructed = true;
    return Status::Ok();
  }
  FTMS_RETURN_IF_ERROR(CheckGroupReconstructible(
      layout, object_id, track, group, first, members, failed_disks));
  SynthesizeGroupMembers(object_id, first, members, block_bytes, scratch);
  ReconstructFromGroup(static_cast<int>(track - first), members, scratch,
                       &out->data);
  out->reconstructed = true;
  return Status::Ok();
}

StatusOr<TrackRead> ReadTrackDegraded(const Layout& layout, int object_id,
                                      int64_t track, int64_t object_tracks,
                                      const DiskSet& failed_disks,
                                      size_t block_bytes) {
  DegradedReadScratch scratch;
  TrackRead result;
  const Status status =
      ReadTrackDegradedInto(layout, object_id, track, object_tracks,
                            failed_disks, block_bytes, &scratch, &result);
  if (!status.ok()) return status;
  return result;
}

Status ReconstructTracksInto(const Layout& layout, int object_id,
                             std::span<const int64_t> tracks,
                             int64_t object_tracks,
                             const DiskSet& failed_disks,
                             size_t block_bytes,
                             DegradedReadScratch* scratch,
                             std::vector<TrackRead>* out) {
  out->resize(tracks.size());
  // Group synthesis is the dominant cost; reuse it while consecutive
  // batch entries stay inside one parity group (the scrub / sequential
  // rebuild pattern).
  int64_t synthesized_group = -1;
  int64_t first = 0;
  int members = 0;
  for (size_t i = 0; i < tracks.size(); ++i) {
    const int64_t track = tracks[i];
    TrackRead& read = (*out)[i];
    read.reconstructed = false;
    if (track < 0 || track >= object_tracks) {
      return Status::OutOfRange("track beyond object end");
    }
    if (!failed_disks.Contains(layout.DataLocation(object_id, track).disk)) {
      SynthesizeDataBlockInto(object_id, track, block_bytes, &read.data);
      continue;
    }
    const int64_t group = layout.GroupOf(track);
    if (group != synthesized_group) {
      GroupExtent(layout, group, object_tracks, &first, &members);
    }
    if (layout.parity_blocks() == 2) {
      // One whole-group P+Q repair per group; later tracks of the same
      // group are served out of the repaired scratch by copy.
      if (scratch->repaired_group != group) {
        FTMS_RETURN_IF_ERROR(RepairGroupPq(layout, object_id, group, first,
                                           members, failed_disks,
                                           block_bytes, scratch));
        synthesized_group = -1;  // scratch->group no longer pristine
      }
      const Block& repaired =
          scratch->group[static_cast<size_t>(track - first)];
      read.data.assign(repaired.begin(), repaired.end());
      read.reconstructed = true;
      continue;
    }
    FTMS_RETURN_IF_ERROR(CheckGroupReconstructible(
        layout, object_id, track, group, first, members, failed_disks));
    if (group != synthesized_group) {
      SynthesizeGroupMembers(object_id, first, members, block_bytes,
                             scratch);
      synthesized_group = group;
    }
    ReconstructFromGroup(static_cast<int>(track - first), members, scratch,
                         &read.data);
    read.reconstructed = true;
  }
  return Status::Ok();
}

StatusOr<int64_t> VerifyObjectReadback(const Layout& layout, int object_id,
                                       int64_t object_tracks,
                                       const DiskSet& failed_disks,
                                       size_t block_bytes) {
  int64_t reconstructed = 0;
  DegradedReadScratch scratch;
  TrackRead read;
  for (int64_t t = 0; t < object_tracks; ++t) {
    const Status status =
        ReadTrackDegradedInto(layout, object_id, t, object_tracks,
                              failed_disks, block_bytes, &scratch, &read);
    if (!status.ok()) return status;
    if (!DataBlockMatches(object_id, t, block_bytes, read.data)) {
      return Status::Internal("byte mismatch at track " +
                              std::to_string(t));
    }
    if (read.reconstructed) ++reconstructed;
  }
  return reconstructed;
}

}  // namespace ftms
