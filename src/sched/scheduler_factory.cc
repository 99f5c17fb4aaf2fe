#include <memory>
#include <string>
#include <utility>

#include "sched/cycle_scheduler.h"
#include "sched/improved_bandwidth_scheduler.h"
#include "sched/non_clustered_scheduler.h"
#include "sched/staggered_group_scheduler.h"
#include "sched/streaming_raid_scheduler.h"

namespace ftms {

StatusOr<std::unique_ptr<CycleScheduler>> CreateScheduler(
    const SchedulerConfig& config, DiskArray* disks, const Layout* layout) {
  if (disks == nullptr || layout == nullptr) {
    return Status::InvalidArgument("disks and layout must be non-null");
  }
  if (config.parity_group_size != layout->parity_group_size()) {
    return Status::InvalidArgument(
        "scheduler parity group size differs from the layout's");
  }
  if (!layout->Serves(config.scheme)) {
    return Status::InvalidArgument(
        std::string(SchemeName(config.scheme)) +
        " scheduling needs the layout CreateLayout builds for it");
  }
  std::unique_ptr<CycleScheduler> sched;
  switch (config.scheme) {
    case Scheme::kStreamingRaid:
    case Scheme::kStreamingRaid2:
      sched = std::make_unique<StreamingRaidScheduler>(config, disks,
                                                       layout);
      break;
    case Scheme::kStaggeredGroup:
      sched = std::make_unique<StaggeredGroupScheduler>(config, disks,
                                                        layout);
      break;
    case Scheme::kNonClustered:
    case Scheme::kNonClustered2:
      sched = std::make_unique<NonClusteredScheduler>(config, disks,
                                                      layout);
      break;
    case Scheme::kImprovedBandwidth:
      sched = std::make_unique<ImprovedBandwidthScheduler>(config, disks,
                                                           layout);
      break;
  }
  if (sched == nullptr) return Status::Internal("unknown scheme");
  return sched;
}

}  // namespace ftms
