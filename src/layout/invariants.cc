#include "layout/invariants.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace ftms {

namespace {

std::string Where(int object_id, int64_t group) {
  return " (object " + std::to_string(object_id) + ", group " +
         std::to_string(group) + ")";
}

}  // namespace

Status CheckNoDuplicateDisksInGroup(const Layout& layout, int num_objects,
                                    int64_t num_groups) {
  for (int obj = 0; obj < num_objects; ++obj) {
    for (int64_t g = 0; g < num_groups; ++g) {
      std::set<int> disks;
      for (const BlockLocation& loc : layout.GroupDataLocations(obj, g)) {
        if (!disks.insert(loc.disk).second) {
          return Status::Internal("duplicate data disk " +
                                  std::to_string(loc.disk) + Where(obj, g));
        }
      }
      const BlockLocation parity = layout.ParityLocation(obj, g);
      if (!disks.insert(parity.disk).second) {
        return Status::Internal("parity disk " + std::to_string(parity.disk) +
                                " collides with a data disk" + Where(obj, g));
      }
      if (layout.parity_blocks() == 2) {
        const BlockLocation q = layout.QParityLocation(obj, g);
        if (!disks.insert(q.disk).second) {
          return Status::Internal("q parity disk " +
                                  std::to_string(q.disk) +
                                  " collides with another group disk" +
                                  Where(obj, g));
        }
      }
    }
  }
  return Status::Ok();
}

Status CheckGroupWithinCluster(const Layout& layout, int num_objects,
                               int64_t num_groups) {
  for (int obj = 0; obj < num_objects; ++obj) {
    for (int64_t g = 0; g < num_groups; ++g) {
      const int cluster = layout.GroupCluster(obj, g);
      for (const BlockLocation& loc : layout.GroupDataLocations(obj, g)) {
        if (loc.cluster != cluster) {
          return Status::Internal("data block off-cluster" + Where(obj, g));
        }
      }
      const BlockLocation parity = layout.ParityLocation(obj, g);
      if (parity.cluster != cluster) {
        return Status::Internal("parity block off-cluster" + Where(obj, g));
      }
      if (!parity.is_parity) {
        return Status::Internal("parity block not marked parity" +
                                Where(obj, g));
      }
    }
  }
  return Status::Ok();
}

Status CheckParityOnNextCluster(const Layout& layout, int num_objects,
                                int64_t num_groups) {
  const int nc = layout.num_clusters();
  for (int obj = 0; obj < num_objects; ++obj) {
    for (int64_t g = 0; g < num_groups; ++g) {
      const int data_cluster = layout.GroupCluster(obj, g);
      const BlockLocation parity = layout.ParityLocation(obj, g);
      if (parity.cluster != (data_cluster + 1) % nc) {
        return Status::Internal("parity not on right-hand neighbor cluster" +
                                Where(obj, g));
      }
      if (parity.cluster == data_cluster && nc > 1) {
        return Status::Internal("parity on its own data cluster" +
                                Where(obj, g));
      }
    }
  }
  return Status::Ok();
}

Status CheckRoundRobinGroups(const Layout& layout, int num_objects,
                             int64_t num_groups) {
  const int nc = layout.num_clusters();
  for (int obj = 0; obj < num_objects; ++obj) {
    const int home = layout.HomeCluster(obj);
    for (int64_t g = 0; g < num_groups; ++g) {
      const int expected = static_cast<int>((home + g) % nc);
      if (layout.GroupCluster(obj, g) != expected) {
        return Status::Internal("group not round-robin" + Where(obj, g));
      }
      const std::vector<BlockLocation> data =
          layout.GroupDataLocations(obj, g);
      for (const BlockLocation& loc : data) {
        if (loc.cluster != expected) {
          return Status::Internal("data block not on round-robin cluster" +
                                  Where(obj, g));
        }
      }
    }
  }
  return Status::Ok();
}

Status CheckDataLoadBalance(const Layout& layout, int object_id,
                            int64_t num_groups, int64_t tolerance) {
  std::vector<int64_t> per_disk(static_cast<size_t>(layout.num_disks()), 0);
  for (int64_t g = 0; g < num_groups; ++g) {
    for (const BlockLocation& loc :
         layout.GroupDataLocations(object_id, g)) {
      ++per_disk[static_cast<size_t>(loc.disk)];
    }
  }
  // Only disks that can hold data participate: for the clustered family
  // the dedicated parity disks (one per cluster, two for dual-parity)
  // never receive data.
  std::vector<int64_t> data_disks;
  for (int d = 0; d < layout.num_disks(); ++d) {
    if (!layout.IsParityDisk(d)) {
      data_disks.push_back(per_disk[static_cast<size_t>(d)]);
    }
  }
  const auto [min_it, max_it] =
      std::minmax_element(data_disks.begin(), data_disks.end());
  if (*max_it - *min_it > tolerance) {
    return Status::Internal(
        "data load imbalance: min=" + std::to_string(*min_it) +
        " max=" + std::to_string(*max_it));
  }
  return Status::Ok();
}

Status CheckDualParityDisks(const Layout& layout, int num_objects,
                            int64_t num_groups) {
  if (layout.parity_blocks() != 2) {
    return Status::Internal("layout does not advertise two parity blocks");
  }
  const int c = layout.parity_group_size();
  for (int obj = 0; obj < num_objects; ++obj) {
    for (int64_t g = 0; g < num_groups; ++g) {
      const int cluster = layout.GroupCluster(obj, g);
      const BlockLocation p = layout.ParityLocation(obj, g);
      const BlockLocation q = layout.QParityLocation(obj, g);
      if (p.cluster != cluster || q.cluster != cluster) {
        return Status::Internal("P/Q block off-cluster" + Where(obj, g));
      }
      if (p.disk != cluster * c + c - 2) {
        return Status::Internal("P not on slot C-2" + Where(obj, g));
      }
      if (q.disk != cluster * c + c - 1) {
        return Status::Internal("Q not on slot C-1" + Where(obj, g));
      }
      if (!p.is_parity || !q.is_parity) {
        return Status::Internal("P/Q block not marked parity" +
                                Where(obj, g));
      }
      for (const BlockLocation& loc : layout.GroupDataLocations(obj, g)) {
        if (loc.disk == p.disk || loc.disk == q.disk) {
          return Status::Internal("data block on a parity disk" +
                                  Where(obj, g));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace ftms
