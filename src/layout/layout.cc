#include "layout/layout.h"

#include <string>

namespace ftms {

namespace {

// The placement each scheme schedules against: the P+Q variants keep two
// parity blocks per group, Improved-bandwidth keeps its one on the next
// cluster, and the rest keep one on their own cluster.
int ParityBlocksOf(Scheme scheme) { return IsDualParity(scheme) ? 2 : 1; }
bool ParityOnNextCluster(Scheme scheme) {
  return scheme == Scheme::kImprovedBandwidth;
}

}  // namespace

Status Layout::CheckObject(const MediaObject& object) {
  if (object.id < 0) {
    return Status::InvalidArgument("object id must be non-negative, got " +
                                   std::to_string(object.id));
  }
  if (object.num_tracks > kMaxTracks) {
    return Status::InvalidArgument(
        "object has " + std::to_string(object.num_tracks) +
        " tracks; placement addresses at most " + std::to_string(kMaxTracks));
  }
  return Status::Ok();
}

Layout::Layout(int num_disks, int parity_group_size, int parity_blocks,
               int disks_per_cluster, bool striped,
               bool parity_on_next_cluster)
    : num_disks_(num_disks),
      parity_group_size_(parity_group_size),
      parity_blocks_(parity_blocks),
      per_group_(parity_group_size - parity_blocks),
      disks_per_cluster_(disks_per_cluster),
      num_clusters_(num_disks / disks_per_cluster),
      striped_(striped),
      parity_on_next_cluster_(parity_on_next_cluster),
      per_group_div_(static_cast<uint32_t>(per_group_)),
      clusters_div_(static_cast<uint32_t>(num_clusters_)),
      dpc_div_(static_cast<uint32_t>(disks_per_cluster)) {}

bool Layout::Serves(Scheme scheme) const {
  return parity_blocks_ == ParityBlocksOf(scheme) &&
         parity_on_next_cluster_ == ParityOnNextCluster(scheme);
}

std::vector<BlockLocation> Layout::GroupDataLocations(int object_id,
                                                      int64_t group) const {
  std::vector<BlockLocation> out;
  out.reserve(static_cast<size_t>(per_group_));
  const int64_t first = group * per_group_;
  for (int i = 0; i < per_group_; ++i) {
    out.push_back(DataLocation(object_id, first + i));
  }
  return out;
}

std::vector<int> Layout::RebuildSources(int disk) const {
  std::vector<int> sources;
  const int cluster = ClusterOfDisk(disk);
  // Every other member of the disk's cluster contributes to each
  // regenerated track.
  for (int i = 0; i < disks_per_cluster_; ++i) {
    const int d = DataDisk(cluster, i);
    if (d != disk) sources.push_back(d);
  }
  if (parity_on_next_cluster_) {
    // The cluster's parity blocks live on the next cluster (rotating over
    // its disks), so its members are sources too.
    const int parity_cluster = ParityCluster(cluster);
    for (int i = 0; i < disks_per_cluster_; ++i) {
      sources.push_back(DataDisk(parity_cluster, i));
    }
  }
  return sources;
}

bool Layout::LosesGroupAt(std::span<const int> down_per_cluster,
                          int cluster) const {
  const int here = down_per_cluster[static_cast<size_t>(cluster)];
  if (here > parity_blocks_) return true;
  if (!parity_on_next_cluster_ || here == 0) return false;
  // Improved-bandwidth: a disk holds its own cluster's data and the
  // previous cluster's parity (Section 4), so one down disk in each of
  // two adjacent clusters loses the groups spanning both.
  const int left = cluster == 0 ? num_clusters_ - 1 : cluster - 1;
  const int right = ParityCluster(cluster);
  return down_per_cluster[static_cast<size_t>(left)] > 0 ||
         down_per_cluster[static_cast<size_t>(right)] > 0;
}

bool Layout::LosesGroup(std::span<const int> down_per_cluster) const {
  for (int cl = 0; cl < num_clusters_; ++cl) {
    if (LosesGroupAt(down_per_cluster, cl)) return true;
  }
  return false;
}

StatusOr<std::unique_ptr<Layout>> CreateLayout(Scheme scheme, int num_disks,
                                               int parity_group_size,
                                               bool striped) {
  if (parity_group_size < 2) {
    return Status::InvalidArgument("parity group size must be >= 2");
  }
  if (num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  const int parity_blocks = ParityBlocksOf(scheme);
  const bool next_cluster = ParityOnNextCluster(scheme);
  if (parity_blocks == 2 && parity_group_size < 3) {
    return Status::InvalidArgument(
        "dual-parity clusters need C >= 3 (two parity disks plus data)");
  }
  // Improved-bandwidth clusters hold the C-1 data disks of a group; the
  // clustered layouts' hold all C blocks.
  const int per_cluster =
      next_cluster ? parity_group_size - 1 : parity_group_size;
  if (num_disks % per_cluster != 0) {
    const std::string what = next_cluster ? "C-1" : "the parity group size";
    return Status::InvalidArgument(
        "num_disks (" + std::to_string(num_disks) + ") must be a multiple of " +
        what + " (" + std::to_string(per_cluster) + ")");
  }
  if (next_cluster && num_disks / per_cluster < 2) {
    return Status::InvalidArgument(
        "Improved-bandwidth layout needs at least two clusters");
  }
  return std::unique_ptr<Layout>(new Layout(num_disks, parity_group_size,
                                            parity_blocks, per_cluster,
                                            striped, next_cluster));
}

}  // namespace ftms
