#ifndef FTMS_DISK_DISK_ARRAY_H_
#define FTMS_DISK_DISK_ARRAY_H_

#include <span>
#include <vector>

#include "disk/disk.h"
#include "disk/disk_model.h"
#include "util/status.h"

namespace ftms {

// A farm of identical disks partitioned into fixed-size clusters.
//
// For the Streaming-RAID-family schemes a cluster holds C disks: C-1 data
// disks followed by one dedicated parity disk (the last disk of the
// cluster, as in the paper's Figure 3). For the Improved-bandwidth scheme
// the cluster holds only data-role disks and parity lives on the next
// cluster, so `cluster_size` is the number of disks grouped together and
// the caller decides what roles they play.
class DiskArray {
 public:
  // Creates `num_disks` disks in clusters of `cluster_size`. `num_disks`
  // must be a positive multiple of `cluster_size`.
  static StatusOr<DiskArray> Create(int num_disks, int cluster_size,
                                    const DiskParameters& params);

  int num_disks() const { return static_cast<int>(disks_.size()); }
  int cluster_size() const { return cluster_size_; }
  int num_clusters() const { return num_disks() / cluster_size_; }
  const DiskParameters& params() const { return params_; }

  // Mutable access is for I/O counters only: state transitions must go
  // through FailDisk / RepairDisk / StartRebuildDisk, which keep the
  // structure-of-arrays failure columns below in sync.
  Disk& disk(int id) { return disks_[static_cast<size_t>(id)]; }
  const Disk& disk(int id) const { return disks_[static_cast<size_t>(id)]; }

  // O(1) hot-path query backed by the per-disk up/down byte column (the
  // schedulers probe disk health for every planned read of every cycle;
  // a byte load here replaces a Disk-object chase + state compare).
  bool DiskUp(int id) const { return up_[static_cast<size_t>(id)] != 0; }

  // Cluster index of disk `id`.
  int ClusterOf(int id) const { return id / cluster_size_; }

  // Position of disk `id` within its cluster, in [0, cluster_size).
  int IndexInCluster(int id) const { return id % cluster_size_; }

  // Global id of disk `index` of cluster `cluster`.
  int DiskId(int cluster, int index) const {
    return cluster * cluster_size_ + index;
  }

  // Failure / repair injection. StartRebuildDisk moves a disk to the
  // rebuilding state (still non-operational for reads); it exists so the
  // rebuild machinery never mutates Disk state behind the failure columns.
  Status FailDisk(int id);
  Status RepairDisk(int id);
  Status StartRebuildDisk(int id);

  // Number of currently failed (or rebuilding) disks, total and per
  // cluster — O(1), maintained incrementally by the mutators above.
  int NumFailed() const { return num_failed_; }
  int NumFailedInCluster(int cluster) const {
    return failed_in_cluster_[static_cast<size_t>(cluster)];
  }
  // The per-cluster counts, one entry per cluster (Layout::LosesGroup
  // reads them to decide whether a group is lost).
  std::span<const int> FailedPerCluster() const { return failed_in_cluster_; }

  // List of currently failed disk ids (ascending).
  std::vector<int> FailedDisks() const;

 private:
  DiskArray(int num_disks, int cluster_size, const DiskParameters& params);

  // Re-derives the SoA failure columns for `id` after a state change.
  void SyncDiskUp(int id);

  int cluster_size_;
  DiskParameters params_;
  std::vector<Disk> disks_;
  // Structure-of-arrays mirror of the per-disk health the schedulers poll
  // every cycle: one byte per disk plus per-cluster / total failed counts,
  // updated only on the (rare) fail/repair/rebuild transitions.
  std::vector<uint8_t> up_;
  std::vector<int> failed_in_cluster_;
  int num_failed_ = 0;
};

}  // namespace ftms

#endif  // FTMS_DISK_DISK_ARRAY_H_
