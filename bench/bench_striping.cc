// Ablation: why stripe every object over ALL clusters (Section 2's
// round-robin group allocation)? Compare the striped clustered layout
// against a non-striped ablation (each title pinned to its home cluster)
// under a Zipf-skewed audience: striping turns a hot title's load into a
// wave that visits every disk, while pinning melts one cluster.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "disk/disk_array.h"
#include "layout/layout.h"
#include "sched/cycle_scheduler.h"
#include "stream/workload.h"
#include "tests/sched_test_util.h"
#include "util/units.h"

namespace ftms {
namespace {

constexpr int kC = 5;
constexpr int kDisks = 20;
constexpr int kCycles = 200;

struct Result {
  int64_t dropped = 0;
  int64_t hiccups = 0;
  double load_ratio = 0;  // max/mean tracks read per data disk
};

Result Run(bool striped) {
  std::unique_ptr<Layout> layout = std::move(
      CreateLayout(Scheme::kNonClustered, kDisks, kC, striped).value());
  DiskParameters disk;
  auto disks = std::make_unique<DiskArray>(std::move(
      DiskArray::Create(kDisks, layout->disks_per_cluster(), disk)
          .value()));
  SchedulerConfig config;
  config.scheme = Scheme::kNonClustered;
  config.parity_group_size = kC;
  config.disk = disk;
  auto sched =
      std::move(CreateScheduler(config, disks.get(), layout.get()).value());

  // A Zipf-skewed audience over 8 titles: most viewers watch title 0.
  WorkloadConfig wconfig;
  wconfig.zipf_theta = 1.2;
  wconfig.seed = 21;
  ZipfDistribution popularity(8, wconfig.zipf_theta);
  Rng rng(wconfig.seed);
  for (int i = 0; i < 100; ++i) {
    const int title = popularity.Sample(rng);
    sched->AddStream(TestObject(title, 4000)).value();
    if (i % 4 == 3) sched->RunCycle();  // stagger positions
  }
  sched->RunCycles(kCycles);

  Result result;
  result.dropped = sched->metrics().dropped_reads;
  result.hiccups = sched->metrics().hiccups;
  int64_t max_reads = 0;
  int64_t total = 0;
  int data_disks = 0;
  for (int d = 0; d < kDisks; ++d) {
    if (d % kC == kC - 1) continue;  // parity disks idle in normal mode
    const int64_t reads = disks->disk(d).tracks_read();
    max_reads = std::max(max_reads, reads);
    total += reads;
    ++data_disks;
  }
  result.load_ratio =
      total > 0 ? static_cast<double>(max_reads) /
                      (static_cast<double>(total) / data_disks)
                : 0;
  return result;
}

}  // namespace
}  // namespace ftms

int main() {
  using namespace ftms;
  bench::Banner(
      "Ablation — striping vs pinning objects to one cluster "
      "(Zipf-1.2 audience, 100 viewers, 8 titles, 20 disks)");
  std::printf("%-22s %10s %10s %18s\n", "Layout", "drops", "hiccups",
              "max/mean disk load");
  const Result striped = Run(true);
  const Result pinned = Run(false);
  std::printf("%-22s %10lld %10lld %18.2f\n", "striped (paper)",
              static_cast<long long>(striped.dropped),
              static_cast<long long>(striped.hiccups),
              striped.load_ratio);
  std::printf("%-22s %10lld %10lld %18.2f\n", "pinned (ablation)",
              static_cast<long long>(pinned.dropped),
              static_cast<long long>(pinned.hiccups), pinned.load_ratio);
  std::printf(
      "\nStriping keeps every data disk near the mean load even with a\n"
      "heavily skewed audience; pinning concentrates the hot title on one\n"
      "cluster, overloading its disks (deadline misses) while the rest of\n"
      "the farm idles — Section 2's rationale for striping \"over all the\n"
      "data disks\".\n");
  return 0;
}
