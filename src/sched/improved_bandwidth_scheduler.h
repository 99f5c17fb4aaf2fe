#ifndef FTMS_SCHED_IMPROVED_BANDWIDTH_SCHEDULER_H_
#define FTMS_SCHED_IMPROVED_BANDWIDTH_SCHEDULER_H_

#include <vector>

#include "sched/cycle_scheduler.h"

namespace ftms {

// The Improved-bandwidth scheme of Section 4.
//
// Parity for cluster i lives on cluster i+1, so during normal operation
// every disk in the system delivers data and NO bandwidth idles in
// reserve. A stream reads its whole parity group's C-1 data tracks each
// cycle (like Streaming RAID) but, in normal mode, not the parity.
//
// On a disk failure, each affected group substitutes its parity block,
// which lives on the right-hand neighbor cluster. If the target disk has
// no idle slot, one of its scheduled LOCAL data reads is dropped in favor
// of the parity read (chained-declustering style); the dropped read is a
// partial failure of that cluster and pushes ITS parity read one cluster
// further right — the "shift to the right" cascade. When the cascade finds
// no idle capacity anywhere, degradation of service occurs and the request
// is dropped for the cycle.
//
// A failure in the middle of a cycle cannot be masked for the tracks
// already scheduled on the failed disk (parity was not being read
// concurrently): those streams suffer one isolated hiccup, after which the
// parity substitution takes over. Setting `ib_prefetch_parity` reads
// parity proactively whenever slots allow (the paper's "sophisticated
// scheduler" for lightly loaded systems), masking even mid-cycle failures.
class ImprovedBandwidthScheduler : public CycleScheduler {
 public:
  ImprovedBandwidthScheduler(const SchedulerConfig& config, DiskArray* disks,
                             const Layout* layout);

 protected:
  void DoRunCycle() override;
  void DoAddStream(Stream* stream) override;
  void DoOnStreamStopped(Stream* stream) override;

 private:
  // One group being read this cycle / delivered next cycle.
  struct GroupBuffer {
    bool ready = false;
    int64_t first_track = 0;
    int tracks = 0;
    int have_count = 0;         // data positions read OK (== trues in have)
    std::vector<uint8_t> have;  // byte flags, not vector<bool>
    bool parity_ok = false;
    int64_t buffered_tracks = 0;
  };

  struct PlannedRead {
    StreamId stream = -1;
    int pos = 0;         // position within the group (data reads)
    bool parity = false;
  };

  // True when the planner believes the disk serves reads this cycle
  // (an actual mid-cycle failure is discovered only at execution).
  // Inline: tested once per planned read.
  bool PlannerSeesUp(int disk) const {
    return DiskUp(disk) || FailedMidCycle(disk);
  }

  void DeliverGroup(Stream* stream, GroupBuffer* buf);
  void PlanStreamReads(Stream* stream, GroupBuffer* buf);
  void PlanFailureParity();
  void PlanPrefetchParity();
  // Places the parity read for `stream`'s current group, shifting local
  // reads to the right as needed. Returns false on degradation.
  bool PlaceParityRead(StreamId stream, int depth);
  void ExecutePlan();

  std::vector<GroupBuffer> state_;
  std::vector<std::vector<PlannedRead>> plan_;     // per disk
  std::vector<int> missing_count_;                 // per stream, this cycle
  std::vector<uint8_t> parity_planned_;            // per stream, this cycle
};

}  // namespace ftms

#endif  // FTMS_SCHED_IMPROVED_BANDWIDTH_SCHEDULER_H_
