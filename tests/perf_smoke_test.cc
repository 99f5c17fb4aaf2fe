#include <gtest/gtest.h>

#include "reliability/markov_sim.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

// Tier-1 smoke for the parallel simulation engine (ctest label
// `perf_smoke`): a tiny reliability sim actually dispatched over a worker
// pool, so the pool + ParallelFor + per-trial RNG plumbing is exercised on
// every test run, not only when someone runs the benches.

TEST(PerfSmokeTest, ParallelReliabilitySimRuns) {
  ReliabilitySimConfig config;
  config.num_disks = 20;
  config.parity_group_size = 5;
  config.mttf_hours = 500.0;
  config.mttr_hours = 5.0;
  config.trials = 64;
  config.threads = 4;  // a 4-worker pool whatever FTMS_THREADS says
  const ReliabilityEstimate est = EstimateMttfCatastrophic(config).value();
  EXPECT_EQ(est.trials, config.trials);
  EXPECT_GT(est.mean_hours, 0);
  EXPECT_GT(est.ci95_hours, 0);

  // And the same workload through the default-thread path (FTMS_THREADS /
  // hardware concurrency) must give the same bits.
  ReliabilitySimConfig defaulted = config;
  defaulted.threads = 0;
  EXPECT_EQ(EstimateMttfCatastrophic(defaulted)->mean_hours,
            est.mean_hours);
}

}  // namespace
}  // namespace ftms
