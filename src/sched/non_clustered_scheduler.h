#ifndef FTMS_SCHED_NON_CLUSTERED_SCHEDULER_H_
#define FTMS_SCHED_NON_CLUSTERED_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "sched/cycle_scheduler.h"

namespace ftms {

// The Non-clustered scheme of Section 3.
//
// Normal mode reads only the data needed for the next cycle (k = k' = 1,
// two buffers per stream, equation (14)): no parity is read and no group
// is held in memory, which is where the scheme's large memory saving over
// Staggered-group comes from — at the cost of a weaker failure mode.
//
// When a data disk of a cluster fails, the cluster switches to degraded
// mode: streams ENTERING a parity group on that cluster read it
// group-at-a-time (like Staggered-group) using memory borrowed from the
// shared buffer-server pool, and the block on the failed disk is
// reconstructed from parity. Streams caught MID-group by the failure lose
// tracks (their already-delivered prefix is gone, so the lost block cannot
// be rebuilt), and the transition itself displaces scheduled reads when
// disk slots fill up — the paper's (C-k)(C-k+1)/2 switchover losses.
// Two transition strategies are implemented (Figures 6 and 7):
//
//  * kImmediateShift — an entering stream reads its whole group at once;
//    the burst displaces lower-priority scheduled reads.
//  * kDeferredRead  — an entering stream keeps reading one track per cycle,
//    folds delivered tracks into a running XOR (ParityAccumulator
//    semantics), and only when the failed position comes due reads the
//    rest of the group plus parity, reconstructing just in time. Fewer
//    reads move, so fewer tracks are displaced.
class NonClusteredScheduler : public CycleScheduler {
 public:
  NonClusteredScheduler(const SchedulerConfig& config, DiskArray* disks,
                        const Layout* layout);

  const BufferServerPool& buffer_servers() const { return servers_; }
  bool ClusterDegraded(int cluster) const;

  // Multi-rate support (extension): with one-track cycles, a stream
  // whose rate is an integer multiple m of the base rate is served by
  // delivering (and fetching) m tracks per cycle — e.g. MPEG-2 = 3x
  // MPEG-1 with the default rates. Consecutive tracks land on
  // consecutive disks, so the extra load spreads.
  bool SupportsRate(double rate_mb_s) const override;

 protected:
  void DoRunCycle() override;
  void DoAddStream(Stream* stream) override;
  void DoOnDiskFailed(int disk) override;
  void DoOnDiskRepaired(int disk) override;
  void DoOnStreamStopped(Stream* stream) override;

 private:
  // Set of absolute object tracks a stream holds in memory. A stream
  // buffers at most one parity group plus a rate-multiplier's worth of
  // staged tracks (~C + 16), so an unsorted flat vector with linear scans
  // beats a node-based set and — once Reserve()d at admission — never
  // allocates on the per-cycle path.
  class SmallTrackSet {
   public:
    void Reserve(size_t n) { tracks_.reserve(n); }
    bool Contains(int64_t t) const {
      return std::find(tracks_.begin(), tracks_.end(), t) != tracks_.end();
    }
    // Returns true when `t` was newly inserted.
    bool Insert(int64_t t) {
      if (Contains(t)) return false;
      tracks_.push_back(t);
      return true;
    }
    // Returns true when `t` was present (and is now removed).
    bool Erase(int64_t t) {
      auto it = std::find(tracks_.begin(), tracks_.end(), t);
      if (it == tracks_.end()) return false;
      *it = tracks_.back();
      tracks_.pop_back();
      return true;
    }
    int64_t size() const { return static_cast<int64_t>(tracks_.size()); }
    void Clear() { tracks_.clear(); }

   private:
    std::vector<int64_t> tracks_;
  };

  struct NcState {
    bool started = false;
    // Rate multiplier of the stream, resolved once at admission (the
    // floating-point round is off the per-cycle path).
    int multiplier = 1;
    SmallTrackSet buffered;  // absolute object tracks in memory
    // Deferred-reconstruction state for the current group:
    int64_t acc_group = -1;  // group whose delivered prefix is accumulated
    int acc_prefix = 0;      // leading positions folded into the XOR
    bool acc_held = false;   // one buffer held for the running XOR
  };

  // Index of the first failed data disk in `cluster`, or -1 when no data
  // disk is down. Reconstruction requires no more failed data disks than
  // operational parity disks (one for NC, up to two for the dual-parity
  // NC-2, which repairs through the P+Q codec).
  int FailedDataIndex(int cluster) const;
  int NumFailedData(int cluster) const;
  // Operational parity disks of the cluster (0..1 for NC, 0..2 for NC-2).
  int ParityDisksUp(int cluster) const;
  bool CanReconstruct(int cluster) const;

  // The first track due for delivery next cycle (the read target of
  // normal NC operation, k = k' = 1), or -1 past end of object. Streams
  // at m-times the base rate are due m consecutive tracks.
  int64_t DueTrack(const Stream& stream, const NcState& st) const;

  // Rate multiplier of the stream (1 for base-rate streams).
  int RateMultiplier(const Stream& stream) const;

  void BufferTrack(NcState* st, int64_t track);
  void DeliverStream(Stream* stream, NcState* st);
  void DeliverOneTrack(Stream* stream, NcState* st);
  // High-priority group reads (degraded-cluster entries / reconstruction
  // deadlines), then low-priority single-track reads.
  void GroupReadStream(Stream* stream, NcState* st);
  void NormalReadStream(Stream* stream, NcState* st);

  // Reads all unbuffered positions of the group plus parity, now; returns
  // through *st. Used by the immediate strategy at group entry and by the
  // deferred strategy at the reconstruction deadline.
  void ReadGroupNow(Stream* stream, NcState* st, int64_t group,
                    bool with_server);

  std::vector<NcState> state_;
  BufferServerPool servers_;
  std::vector<bool> server_attached_;  // per cluster
};

}  // namespace ftms

#endif  // FTMS_SCHED_NON_CLUSTERED_SCHEDULER_H_
