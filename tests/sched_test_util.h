#ifndef FTMS_TESTS_SCHED_TEST_UTIL_H_
#define FTMS_TESTS_SCHED_TEST_UTIL_H_

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "disk/disk_array.h"
#include "layout/layout.h"
#include "sched/cycle_scheduler.h"
#include "util/metrics.h"

namespace ftms {

// A self-contained scheduler under test: disks + layout + scheduler with
// consistent geometry.
struct SchedRig {
  std::unique_ptr<DiskArray> disks;
  std::unique_ptr<Layout> layout;
  std::unique_ptr<CycleScheduler> sched;
};

struct RigOptions {
  int slots_per_disk = 0;  // 0 = derive from the disk model
  NcTransition nc_transition = NcTransition::kDeferredRead;
  int buffer_servers = 3;
  bool ib_prefetch_parity = false;
  bool ib_mirror_read_balance = false;
  double object_rate_mb_s = 0.1875;
  // Private observability sinks (null = uninstrumented, the default).
  MetricsRegistry* metrics = nullptr;
  // Private QoS sinks (null = FTMS_QOS-gated defaults, normally off in
  // tests).
  EventJournal* journal = nullptr;
  QosLedger* ledger = nullptr;
  // Private time-series sink (null = FTMS_TIMESERIES-gated default).
  TimeSeriesRecorder* timeseries = nullptr;
  // Override the per-disk capacity (0 = keep the model default). Small
  // disks keep rebuild-to-completion scenarios fast in tests.
  double disk_capacity_mb = 0;
};

inline SchedRig MakeRig(Scheme scheme, int parity_group_size, int num_disks,
                        const RigOptions& options = RigOptions()) {
  SchedRig rig;
  rig.layout =
      std::move(CreateLayout(scheme, num_disks, parity_group_size).value());
  DiskParameters disk;
  if (options.disk_capacity_mb > 0) {
    disk.capacity_mb = options.disk_capacity_mb;
  }
  rig.disks = std::make_unique<DiskArray>(std::move(
      DiskArray::Create(num_disks, rig.layout->disks_per_cluster(), disk)
          .value()));
  SchedulerConfig config;
  config.scheme = scheme;
  config.parity_group_size = parity_group_size;
  config.object_rate_mb_s = options.object_rate_mb_s;
  config.disk = disk;
  config.slots_per_disk = options.slots_per_disk;
  config.nc_transition = options.nc_transition;
  config.buffer_servers = options.buffer_servers;
  config.ib_prefetch_parity = options.ib_prefetch_parity;
  config.ib_mirror_read_balance = options.ib_mirror_read_balance;
  config.metrics = options.metrics;
  config.journal = options.journal;
  config.ledger = options.ledger;
  config.timeseries = options.timeseries;
  rig.sched = std::move(
      CreateScheduler(config, rig.disks.get(), rig.layout.get()).value());
  return rig;
}

// Convenience overload: an instrumented rig publishing into `metrics`,
// with default options otherwise.
inline SchedRig MakeRig(Scheme scheme, int parity_group_size, int num_disks,
                        MetricsRegistry* metrics) {
  RigOptions options;
  options.metrics = metrics;
  return MakeRig(scheme, parity_group_size, num_disks, options);
}

// An object whose home cluster is 0 (ids that are multiples of the
// cluster count keep tests readable).
inline MediaObject TestObject(int id, int64_t tracks,
                              double rate_mb_s = 0.1875) {
  MediaObject obj;
  obj.id = id;
  obj.name = "test_object_" + std::to_string(id);
  obj.rate_mb_s = rate_mb_s;
  obj.num_tracks = tracks;
  return obj;
}

// Registry text with every wall-clock-valued line dropped (the
// cycle_wall_us histogram's buckets, sum and quantile gauges measure real
// elapsed time); every simulated-state line is kept, so two runs of one
// simulation must match on what is left byte for byte.
inline std::string DeterministicText(const MetricsRegistry& registry) {
  std::istringstream in(registry.PrometheusText());
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("wall") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace ftms

#endif  // FTMS_TESTS_SCHED_TEST_UTIL_H_
