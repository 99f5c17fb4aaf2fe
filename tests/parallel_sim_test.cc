#include <gtest/gtest.h>

#include "reliability/markov_sim.h"

namespace ftms {
namespace {

// The contract behind the parallel Monte-Carlo engine: trial i runs on its
// own RNG stream derived only from (seed, i), and the per-trial results
// are folded in trial order — so the estimate is BIT-identical no matter
// how many worker threads computed it. Each N > 1 runs on its own pool of
// N workers, so every thread count below splits the trials differently
// (7 workers leave a short last chunk).

ReliabilitySimConfig BaseConfig() {
  ReliabilitySimConfig config;
  config.num_disks = 40;
  config.parity_group_size = 5;
  config.mttf_hours = 800.0;
  config.mttr_hours = 8.0;
  config.trials = 120;
  config.seed = 4242;
  return config;
}

TEST(ParallelSimTest, CatastrophicEstimateIdenticalAcrossThreadCounts) {
  ReliabilitySimConfig config = BaseConfig();
  config.threads = 1;
  const ReliabilityEstimate one = EstimateMttfCatastrophic(config).value();
  for (int threads : {2, 7, 8}) {
    config.threads = threads;
    const ReliabilityEstimate est =
        EstimateMttfCatastrophic(config).value();
    EXPECT_EQ(est.mean_hours, one.mean_hours) << threads << " threads";
    EXPECT_EQ(est.ci95_hours, one.ci95_hours) << threads << " threads";
    EXPECT_EQ(est.trials, one.trials);
  }
}

TEST(ParallelSimTest, KConcurrentIdenticalAcrossThreadCounts) {
  ReliabilitySimConfig config = BaseConfig();
  config.threads = 1;
  const double one = EstimateKConcurrent(config, 3)->mean_hours;
  for (int threads : {2, 8}) {
    config.threads = threads;
    EXPECT_EQ(EstimateKConcurrent(config, 3)->mean_hours, one)
        << threads << " threads";
  }
}

TEST(ParallelSimTest, KDegradedClustersIdenticalAcrossThreadCounts) {
  ReliabilitySimConfig config = BaseConfig();
  config.threads = 1;
  const double one = EstimateKDegradedClusters(config, 2)->mean_hours;
  for (int threads : {2, 8}) {
    config.threads = threads;
    EXPECT_EQ(EstimateKDegradedClusters(config, 2)->mean_hours, one)
        << threads << " threads";
  }
}

TEST(ParallelSimTest, ImprovedBandwidthSchemeIdenticalAcrossThreadCounts) {
  // IB uses a different cluster geometry (C-1 disks) and the adjacency
  // stop rule; cover it separately.
  ReliabilitySimConfig config = BaseConfig();
  config.scheme = Scheme::kImprovedBandwidth;
  config.threads = 1;
  const double one = EstimateMttfCatastrophic(config)->mean_hours;
  config.threads = 8;
  EXPECT_EQ(EstimateMttfCatastrophic(config)->mean_hours, one);
}

TEST(ParallelSimTest, SeedStillSelectsTheExperiment) {
  ReliabilitySimConfig config = BaseConfig();
  config.threads = 8;
  const double a = EstimateMttfCatastrophic(config)->mean_hours;
  config.seed = 4243;
  const double b = EstimateMttfCatastrophic(config)->mean_hours;
  EXPECT_NE(a, b);
}

TEST(ParallelSimTest, RejectsNegativeThreads) {
  ReliabilitySimConfig config = BaseConfig();
  config.threads = -1;
  EXPECT_FALSE(EstimateMttfCatastrophic(config).ok());
}

}  // namespace
}  // namespace ftms
