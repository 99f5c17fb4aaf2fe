#ifndef FTMS_SCHED_STREAMING_RAID_SCHEDULER_H_
#define FTMS_SCHED_STREAMING_RAID_SCHEDULER_H_

#include <vector>

#include "parity/parity.h"
#include "sched/cycle_scheduler.h"
#include "verify/datapath.h"

namespace ftms {

// The Streaming RAID scheme of Section 2 (after Tobagi et al. [11]).
//
// Every active stream reads one ENTIRE parity group (C-1 data tracks plus
// the parity track) per cycle and transmits it during the next cycle
// (k = k' = C-1). Because the parity block is always in memory together
// with the rest of the group, a single disk failure per cluster is masked
// with no hiccup — even one striking in the middle of a cycle — at the
// price of 2C buffer tracks per stream (equation (12)) and a 1/C
// bandwidth reservation.
//
// On a dual-parity (SR-2) layout the same scheduler reads C-2 data
// tracks plus the P and Q parity tracks per group and masks ANY two
// concurrent failures inside a cluster: the missing blocks are repaired
// through the GF(2^8) P+Q codec (parity/parity.h) instead of the plain
// XOR fold. The per-stream buffer footprint stays 2C.
class StreamingRaidScheduler : public CycleScheduler {
 public:
  StreamingRaidScheduler(const SchedulerConfig& config, DiskArray* disks,
                         const Layout* layout);

 protected:
  void DoRunCycle() override;
  void DoAddStream(Stream* stream) override;
  void DoOnStreamStopped(Stream* stream) override;

 private:
  // A parity group read in the previous cycle, now being delivered.
  struct GroupBuffer {
    bool ready = false;             // a group is buffered for delivery
    int64_t first_track = 0;        // first object track of the group
    int tracks = 0;                 // data tracks in the group (final group
                                    // of an object may be short)
    int missing = 0;                // data positions that failed to read
    std::vector<uint8_t> have;      // per position: data track read OK
                                    // (byte flags: indexed without the
                                    // vector<bool> bit-twiddling)
    bool parity_ok = false;
    bool q_ok = false;              // dual-parity layouts: Q track read OK
    int64_t buffered_tracks = 0;    // buffer-pool accounting for release
    // Integrity mode: the actual bytes carried through the pipeline.
    std::vector<Block> data;        // per position (empty when not read)
    Block parity;                   // P block
    Block qparity;                  // Q block (dual-parity layouts)
  };

  // Bytes per track in integrity mode: small, so tests stay fast while
  // still exercising real XOR reconstruction.
  static constexpr size_t kVerifyBlockBytes = 64;

  // Per-cycle datapath scratch (integrity mode): synthesis targets and
  // the multi-source pointer batch reused across tracks so the verify
  // pipeline never allocates per track.
  struct VerifyScratch {
    Block block;
    DegradedReadScratch parity_scratch;
    std::vector<const uint8_t*> srcs;
    std::vector<int> missing_units;  // dual-parity codec erasure list
  };

  // Repairs the buffered group's missing bytes in place (integrity mode):
  // XOR through P for single-parity layouts, the P+Q codec for dual-
  // parity. Returns false when the repair could not run (codec error).
  bool RepairGroupBytes(GroupBuffer* buf, VerifyScratch* scratch);

  void DeliverGroup(Stream* stream, GroupBuffer* buf,
                    VerifyScratch* scratch);
  void ReadNextGroup(Stream* stream, GroupBuffer* buf,
                     VerifyScratch* scratch);

  std::vector<GroupBuffer> state_;  // indexed by StreamId
};

}  // namespace ftms

#endif  // FTMS_SCHED_STREAMING_RAID_SCHEDULER_H_
