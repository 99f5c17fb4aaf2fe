#ifndef FTMS_SCHED_STAGGERED_GROUP_SCHEDULER_H_
#define FTMS_SCHED_STAGGERED_GROUP_SCHEDULER_H_

#include <vector>

#include "sched/cycle_scheduler.h"

namespace ftms {

// The Staggered-group scheme of Section 2 ("memory sharing with
// subgrouping and subcycling" in [11]).
//
// Layout is identical to Streaming RAID, but the cycle is one track long
// (k' = 1): a stream reads its whole parity group (k = C-1 tracks plus
// parity) in one short cycle and delivers it over the following C-1
// cycles, one track per cycle. Streams are assigned staggered read phases
// so their memory peaks are out of phase (Figure 4), cutting the buffer
// requirement roughly in half versus Streaming RAID (equation (13))
// at a small loss in streams (fewer requests per disk per cycle to
// amortize the seek over).
class StaggeredGroupScheduler : public CycleScheduler {
 public:
  StaggeredGroupScheduler(const SchedulerConfig& config, DiskArray* disks,
                          const Layout* layout);

  // Buffer tracks currently held by stream `id` (for the Figure 4 bench).
  int64_t BufferedTracksOf(StreamId id) const;

 protected:
  void DoRunCycle() override;
  void DoAddStream(Stream* stream) override;
  void DoOnStreamStopped(Stream* stream) override;

 private:
  struct SgState {
    int phase = 0;         // read cycle when (cycle - phase) % (C-1) == 0
    bool started = false;  // first group read has happened
    // Current buffered group.
    int64_t first_track = 0;
    int tracks = 0;
    int delivered = 0;  // tracks of the group delivered so far
    int missing = 0;    // tracks of the group that failed to read
    std::vector<uint8_t> have;  // byte flags, not vector<bool>
    bool parity_ok = false;
    int64_t buffered_tracks = 0;  // pool accounting
  };

  // Whether this is one of the stream's staggered read cycles. Inline:
  // tested once per active stream per cycle. The guard on cycle() >=
  // phase keeps the modulo on non-negative values (a negative dividend in
  // (-(C-1), 0) is never congruent to 0, so the result is unchanged).
  bool IsReadCycle(const SgState& st) const {
    const int64_t since = cycle() - st.phase;
    if (since < 0) return false;
    return layout_.PositionInGroup(since) == 0;
  }
  void ReadGroup(Stream* stream, SgState* st);
  void DeliverOne(Stream* stream, SgState* st);

  std::vector<SgState> state_;
  // Phase assignment counters per home cluster: staggering must balance
  // WITHIN each cluster's stream population (a global counter aliases
  // with the cluster assignment whenever the cluster count and C-1 share
  // a factor, overloading one phase of some cluster).
  std::vector<int> next_phase_per_cluster_;
};

}  // namespace ftms

#endif  // FTMS_SCHED_STAGGERED_GROUP_SCHEDULER_H_
