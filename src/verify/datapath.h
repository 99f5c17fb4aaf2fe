#ifndef FTMS_VERIFY_DATAPATH_H_
#define FTMS_VERIFY_DATAPATH_H_

#include <cstdint>
#include <vector>

#include "layout/layout.h"
#include "parity/parity.h"
#include "util/disk_set.h"
#include "util/status.h"

namespace ftms {

// Byte-level data path verification: while the cycle schedulers simulate
// timing at track granularity, this module exercises the ACTUAL bytes of
// the layout + parity pipeline — what a real server would do — so tests
// can prove that any single-disk failure reconstructs every affected
// track bit-exactly, for every layout.
//
// Disk contents are synthesized deterministically from (object, track):
// the "disk" never stores anything, it regenerates the same bytes on
// every read, and parity blocks are the XOR of their group's synthesized
// data blocks — exactly the bytes a real write path would have placed.
// A data block's word i is SynthMix(seed + i), the seed itself a
// SynthMix of (object, track); the dispatched kernel writes it
// (parity/pq_kernels.h), and the scalar kernel defines its bytes.
// Checking a block against ground truth (DataBlockMatches) runs through
// the same kernel in registers, without synthesizing an expected block.
//
// The `...Into` forms write through caller-owned blocks/scratch so that
// loops over many tracks (scrubbing, integrity-mode delivery, rebuild,
// the degraded-read bench) allocate nothing in steady state; the
// value-returning forms are conveniences over them. All XOR folds go
// through the dispatched multi-source kernel (parity/xor_kernels.h):
// reconstructing a track is one seed copy plus one fused pass over the
// destination, not C-1 pairwise passes.

// Deterministic contents of data track `track` of `object_id`, written
// into *out (resized to `block_bytes`; capacity is reused across calls).
void SynthesizeDataBlockInto(int object_id, int64_t track,
                             size_t block_bytes, Block* out);

// True when `block` is exactly the `block_bytes` bytes that
// SynthesizeDataBlockInto writes for (object_id, track): the
// ground-truth check of every byte path, fused into the synthesis loop.
bool DataBlockMatches(int object_id, int64_t track, size_t block_bytes,
                      const Block& block);

// Deterministic contents of data track `track` of `object_id`.
Block SynthesizeDataBlock(int object_id, int64_t track,
                          size_t block_bytes);

// Reusable state for the group-at-a-time paths: one synthesis slot per
// group member plus the pointer batch handed to the multi-source kernel.
// Slot capacity survives across calls, so steady-state loops allocate
// nothing.
struct DegradedReadScratch {
  std::vector<Block> group;          // synthesized group member blocks
  std::vector<const uint8_t*> srcs;  // kernel source-pointer batch
  // Dual-parity (P+Q) paths only:
  Block p;                   // P block scratch
  Block q;                   // Q block scratch
  std::vector<int> missing;  // erased unit indices handed to the codec
  int64_t repaired_group = -1;  // group whose repair `group` holds
};

// Parity block contents for group `group` of an object of
// `object_tracks` total tracks (short final groups XOR fewer blocks),
// written into *out via one fused multi-source fold over the group
// members synthesized into *scratch.
Status SynthesizeParityBlockInto(const Layout& layout, int object_id,
                                 int64_t group, int64_t object_tracks,
                                 size_t block_bytes, Block* out,
                                 DegradedReadScratch* scratch);

// Value-returning convenience form.
StatusOr<Block> SynthesizeParityBlock(const Layout& layout, int object_id,
                                      int64_t group, int64_t object_tracks,
                                      size_t block_bytes);

// Q (second parity) block contents for group `group` of a dual-parity
// layout: the GF(2^8) syndrome sum g^i * D_i over the group's members
// (short final groups sum fewer terms), computed through the dispatched
// P+Q kernel. Fails INVALID_ARGUMENT unless the layout has two parity
// blocks per group.
Status SynthesizeQParityBlockInto(const Layout& layout, int object_id,
                                  int64_t group, int64_t object_tracks,
                                  size_t block_bytes, Block* out,
                                  DegradedReadScratch* scratch);

// Outcome of reading one track through the (possibly degraded) array.
struct TrackRead {
  bool reconstructed = false;  // served via parity instead of directly
  Block data;
};

// Reads data track `track` into out->data, reconstructing from the
// surviving group members + parity when its disk is in `failed_disks`.
// Fails with UNAVAILABLE when reconstruction is impossible: a second
// failure in the group for single-parity layouts (the paper's
// catastrophic case), a THIRD for dual-parity layouts, whose P+Q codec
// repairs any two concurrent erasures per group.
Status ReadTrackDegradedInto(const Layout& layout, int object_id,
                             int64_t track, int64_t object_tracks,
                             const DiskSet& failed_disks,
                             size_t block_bytes,
                             DegradedReadScratch* scratch, TrackRead* out);

// Value-returning convenience form.
StatusOr<TrackRead> ReadTrackDegraded(const Layout& layout, int object_id,
                                      int64_t track, int64_t object_tracks,
                                      const DiskSet& failed_disks,
                                      size_t block_bytes);

// Batched reconstruction: serves every entry of `tracks` (in order) the
// way ReadTrackDegradedInto would, writing (*out)[i] for tracks[i], but
// amortizing the per-track overhead across the batch — consecutive
// tracks of the same parity group share one group synthesis, and all
// scratch/output capacity is reused across calls. This is the
// RebuildManager's byte-level regeneration path: one call per rebuild
// cycle instead of one fold per track. Fails (UNAVAILABLE / OUT_OF_RANGE)
// on the first unreconstructible track, like the single-track form.
Status ReconstructTracksInto(const Layout& layout, int object_id,
                             std::span<const int64_t> tracks,
                             int64_t object_tracks,
                             const DiskSet& failed_disks,
                             size_t block_bytes,
                             DegradedReadScratch* scratch,
                             std::vector<TrackRead>* out);

// Convenience for tests: reads every track of the object under the given
// failures and verifies each against the synthesized ground truth.
// Returns the number of reconstructed tracks, or an error on the first
// mismatch / unrecoverable track.
StatusOr<int64_t> VerifyObjectReadback(const Layout& layout, int object_id,
                                       int64_t object_tracks,
                                       const DiskSet& failed_disks,
                                       size_t block_bytes);

}  // namespace ftms

#endif  // FTMS_VERIFY_DATAPATH_H_
