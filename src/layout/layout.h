#ifndef FTMS_LAYOUT_LAYOUT_H_
#define FTMS_LAYOUT_LAYOUT_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "layout/media_object.h"
#include "layout/schemes.h"
#include "util/fastdiv.h"
#include "util/status.h"

namespace ftms {

// Where one track (data block or parity block) of an object lives.
struct BlockLocation {
  int disk = -1;     // global disk id
  int cluster = -1;  // cluster owning the block
  bool is_parity = false;

  friend bool operator==(const BlockLocation&, const BlockLocation&) =
      default;
};

// Where every block of every object lives, and which failures lose a
// group: the one module that decides placement. A Layout is a small
// copyable value, a pure integer function of its geometry; it tracks no
// capacity (see Catalog), so schedulers keep a copy and query it inline on
// every read.
//
// Terminology: a parity group consists of `DataBlocksPerGroup()`
// consecutive data tracks of ONE object plus `parity_blocks()` parity
// tracks (Observation 1: never mix objects in a group). Group j of an
// object whose home cluster is h lives on cluster (h + j) mod Nc — the
// round-robin allocation of Section 2 (the non-striped ablation pins every
// group to h). A group's data occupies slots 0..C'-1 of its cluster, C' =
// DataBlocksPerGroup(). Its parity lives either on the same cluster's
// trailing dedicated parity slots (SR/SG/NC, Figure 3; P at slot C-2 and Q
// at slot C-1 for the P+Q variants) or, for Improved-bandwidth, on a disk
// of the next cluster, rotating over that cluster's C-1 disks (Section 4,
// Figure 8).
//
// Arithmetic domain: object ids are non-negative ints and track indices
// stay below 2^32, so every division is a 32-bit FastDiv. Objects from
// outside pass CheckObject() before they reach a layout (Catalog::Add,
// CycleScheduler::AddStream).
class Layout {
 public:
  // Largest track count (and one past the largest track index) the
  // placement arithmetic addresses.
  static constexpr int64_t kMaxTracks = INT64_C(0xffffffff);

  // Rejects an object the placement cannot address: a negative id, or
  // more than kMaxTracks tracks.
  static Status CheckObject(const MediaObject& object);

  int num_disks() const { return num_disks_; }
  int parity_group_size() const { return parity_group_size_; }  // C
  // Parity blocks per group: 1 for the paper's four schemes, 2 for the
  // P+Q dual-parity variants.
  int parity_blocks() const { return parity_blocks_; }
  int DataBlocksPerGroup() const { return per_group_; }
  // Clustered layouts group C disks; Improved-bandwidth groups C-1.
  int num_clusters() const { return num_clusters_; }
  int disks_per_cluster() const { return disks_per_cluster_; }
  // Whether groups round-robin over clusters (everything except the
  // non-striped ablation).
  bool striped() const { return striped_; }

  // Whether this layout places blocks the way `scheme` schedules them
  // (its parity blocks per group and parity cluster; striping aside).
  bool Serves(Scheme scheme) const;

  // Parity group of data track `track`, and the track's position in it.
  int64_t GroupOf(int64_t track) const {
    return per_group_div_.Div(Narrow(track));
  }
  int PositionInGroup(int64_t track) const {
    return static_cast<int>(per_group_div_.Mod(Narrow(track)));
  }

  // Home cluster of object `object_id` (where its group 0 lives).
  int HomeCluster(int object_id) const {
    assert(object_id >= 0);
    return static_cast<int>(
        clusters_div_.Mod(static_cast<uint32_t>(object_id)));
  }
  // Cluster holding the data of group `group` of the object.
  int GroupCluster(int object_id, int64_t group) const {
    const int home = HomeCluster(object_id);
    if (!striped_) return home;
    return AddMod(home, static_cast<int>(clusters_div_.Mod(Narrow(group))),
                  num_clusters_);
  }
  int ClusterOfDisk(int disk) const {
    assert(disk >= 0);
    return static_cast<int>(dpc_div_.Div(static_cast<uint32_t>(disk)));
  }

  // Global disk of slot `slot` of `cluster`; data position `pos` of a
  // group is slot `pos` of the group's cluster.
  int DataDisk(int cluster, int pos) const {
    return cluster * disks_per_cluster_ + pos;
  }
  int DataDiskOf(int object_id, int64_t track) const {
    return DataDisk(GroupCluster(object_id, GroupOf(track)),
                    PositionInGroup(track));
  }

  // Dedicated parity slots per cluster: parity_blocks() for clustered
  // layouts, none for Improved-bandwidth (every disk there holds data and
  // the previous cluster's parity). They follow the data slots.
  int parity_slots() const {
    return parity_on_next_cluster_ ? 0 : parity_blocks_;
  }
  // Global disk of dedicated parity slot `k` of `cluster` (k = 0 is P,
  // k = 1 is Q).
  int DedicatedParityDisk(int cluster, int k) const {
    return DataDisk(cluster, per_group_ + k);
  }
  // Whether `disk` is a dedicated parity disk (holds no data).
  bool IsParityDisk(int disk) const {
    return static_cast<int>(dpc_div_.Mod(static_cast<uint32_t>(disk))) >=
           per_group_;
  }

  // Cluster holding the parity of a group whose data is on
  // `data_cluster`.
  int ParityCluster(int data_cluster) const {
    if (!parity_on_next_cluster_) return data_cluster;
    return data_cluster + 1 == num_clusters_ ? 0 : data_cluster + 1;
  }
  // Global disk of the parity block of `group` (the P block for P+Q
  // layouts), given the group's data cluster.
  int ParityDisk(int object_id, int64_t group, int data_cluster) const {
    if (!parity_on_next_cluster_) {
      return DedicatedParityDisk(data_cluster, 0);
    }
    assert(object_id >= 0);
    const int index =
        AddMod(static_cast<int>(
                   dpc_div_.Mod(static_cast<uint32_t>(object_id))),
               static_cast<int>(dpc_div_.Mod(Narrow(group))),
               disks_per_cluster_);
    return DataDisk(ParityCluster(data_cluster), index);
  }
  // The Q (second parity) disk of a P+Q cluster: its last slot.
  // Meaningful only when parity_blocks() == 2.
  int QParityDisk(int data_cluster) const {
    return DedicatedParityDisk(data_cluster, 1);
  }

  // Location of data track `track` of the object.
  BlockLocation DataLocation(int object_id, int64_t track) const {
    const int cluster = GroupCluster(object_id, GroupOf(track));
    return {DataDisk(cluster, PositionInGroup(track)), cluster, false};
  }
  // Location of the parity block of group `group` (P for P+Q layouts).
  BlockLocation ParityLocation(int object_id, int64_t group) const {
    const int cluster = GroupCluster(object_id, group);
    return {ParityDisk(object_id, group, cluster), ParityCluster(cluster),
            true};
  }
  // Location of the Q block for P+Q layouts; a default-constructed
  // location (disk == -1) everywhere else.
  BlockLocation QParityLocation(int object_id, int64_t group) const {
    if (parity_blocks_ != 2) return BlockLocation{};
    const int cluster = GroupCluster(object_id, group);
    return {QParityDisk(cluster), cluster, true};
  }
  // All data locations of group `group` in group order.
  std::vector<BlockLocation> GroupDataLocations(int object_id,
                                                int64_t group) const;

  // Disks a rebuild of `disk` reads: every other disk of its cluster and,
  // for Improved-bandwidth, every disk of the next cluster (where the
  // cluster's parity lives). The previous cluster, whose groups keep
  // their parity on `disk`, is not in the set.
  std::vector<int> RebuildSources(int disk) const;

  // Whether the failures counted in `down_per_cluster` (one entry per
  // cluster) lose a group: more of its units down than it has parity
  // blocks. Clustered layouts lose one when a cluster has more than
  // parity_blocks() down; Improved-bandwidth when a cluster has two down
  // or two adjacent clusters have one each. LosesGroupAt checks only the
  // groups touching `cluster`, in O(1).
  bool LosesGroupAt(std::span<const int> down_per_cluster,
                    int cluster) const;
  bool LosesGroup(std::span<const int> down_per_cluster) const;

 private:
  friend StatusOr<std::unique_ptr<Layout>> CreateLayout(
      Scheme scheme, int num_disks, int parity_group_size, bool striped);

  Layout(int num_disks, int parity_group_size, int parity_blocks,
         int disks_per_cluster, bool striped, bool parity_on_next_cluster);

  // Tracks and groups are below 2^32 (see CheckObject).
  static uint32_t Narrow(int64_t value) {
    assert(value >= 0 && value <= kMaxTracks);
    return static_cast<uint32_t>(value);
  }
  // (a + b) mod n for a, b in [0, n). Summing residues, not raw ids and
  // groups (whose sum can pass 2^32), keeps every FastDiv operand 32-bit.
  static int AddMod(int a, int b, int n) {
    const int sum = a + b;
    return sum >= n ? sum - n : sum;
  }

  int num_disks_;
  int parity_group_size_;
  int parity_blocks_;
  int per_group_;
  int disks_per_cluster_;
  int num_clusters_;
  bool striped_;
  bool parity_on_next_cluster_;
  FastDiv per_group_div_;  // by per_group_
  FastDiv clusters_div_;   // by num_clusters_
  FastDiv dpc_div_;        // by disks_per_cluster_
};

// Builds the layout `scheme` places blocks with on `num_disks` disks and
// parity groups of `parity_group_size` (C). Clustered schemes need a
// positive multiple of C disks (and C >= 3 for P+Q); Improved-bandwidth
// needs a multiple of C-1 giving at least two clusters. `striped = false`
// builds the non-striped ablation (bench_striping).
StatusOr<std::unique_ptr<Layout>> CreateLayout(Scheme scheme, int num_disks,
                                               int parity_group_size,
                                               bool striped = true);

}  // namespace ftms

#endif  // FTMS_LAYOUT_LAYOUT_H_
