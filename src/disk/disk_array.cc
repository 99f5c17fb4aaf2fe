#include "disk/disk_array.h"

#include <string>

namespace ftms {

DiskArray::DiskArray(int num_disks, int cluster_size,
                     const DiskParameters& params)
    : cluster_size_(cluster_size), params_(params) {
  disks_.reserve(static_cast<size_t>(num_disks));
  for (int i = 0; i < num_disks; ++i) disks_.emplace_back(i);
  up_.assign(static_cast<size_t>(num_disks), 1);
  failed_in_cluster_.assign(static_cast<size_t>(num_disks / cluster_size),
                            0);
}

void DiskArray::SyncDiskUp(int id) {
  const uint8_t now_up = disks_[static_cast<size_t>(id)].operational()
                             ? uint8_t{1}
                             : uint8_t{0};
  if (now_up == up_[static_cast<size_t>(id)]) return;
  up_[static_cast<size_t>(id)] = now_up;
  const int delta = now_up != 0 ? -1 : 1;
  num_failed_ += delta;
  failed_in_cluster_[static_cast<size_t>(ClusterOf(id))] += delta;
}

StatusOr<DiskArray> DiskArray::Create(int num_disks, int cluster_size,
                                      const DiskParameters& params) {
  if (num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  if (cluster_size <= 0) {
    return Status::InvalidArgument("cluster_size must be positive");
  }
  if (num_disks % cluster_size != 0) {
    return Status::InvalidArgument(
        "num_disks (" + std::to_string(num_disks) +
        ") must be a multiple of cluster_size (" +
        std::to_string(cluster_size) + ")");
  }
  FTMS_RETURN_IF_ERROR(params.Validate());
  return DiskArray(num_disks, cluster_size, params);
}

Status DiskArray::FailDisk(int id) {
  if (id < 0 || id >= num_disks()) {
    return Status::OutOfRange("disk id out of range");
  }
  disks_[static_cast<size_t>(id)].Fail();
  SyncDiskUp(id);
  return Status::Ok();
}

Status DiskArray::RepairDisk(int id) {
  if (id < 0 || id >= num_disks()) {
    return Status::OutOfRange("disk id out of range");
  }
  disks_[static_cast<size_t>(id)].Repair();
  SyncDiskUp(id);
  return Status::Ok();
}

Status DiskArray::StartRebuildDisk(int id) {
  if (id < 0 || id >= num_disks()) {
    return Status::OutOfRange("disk id out of range");
  }
  disks_[static_cast<size_t>(id)].StartRebuild();
  SyncDiskUp(id);
  return Status::Ok();
}

std::vector<int> DiskArray::FailedDisks() const {
  std::vector<int> out;
  for (const Disk& d : disks_) {
    if (!d.operational()) out.push_back(d.id());
  }
  return out;
}

}  // namespace ftms
