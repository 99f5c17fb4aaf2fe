#ifndef FTMS_RELIABILITY_MARKOV_SIM_H_
#define FTMS_RELIABILITY_MARKOV_SIM_H_

#include <cstdint>

#include "layout/schemes.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace ftms {

// Monte-Carlo failure/repair simulation cross-validating the closed-form
// reliability equations (4)-(6).
//
// Disks fail independently with exponential lifetimes (mean MTTF) and are
// repaired in exponential time (mean MTTR). A trial runs until the target
// event occurs; the estimate is the mean over trials with a 95% CI.
//
// Events:
//  * catastrophic, clustered schemes: two disks of one C-disk cluster are
//    down simultaneously (the group's data can no longer be reconstructed);
//    the dual-parity variants (SR-2/NC-2) survive two and die at THREE
//    down disks in one cluster — P+Q repairs any two erasures;
//  * catastrophic, Improved-bandwidth: two down disks in the same or in
//    adjacent (C-1)-disk clusters — disks serve their own cluster's data
//    AND the left neighbor's parity, so adjacency is fatal (Section 4);
//  * degradation of service: `k_concurrent` disks down simultaneously
//    anywhere in the farm (buffer-server pool / reserved bandwidth
//    exhausted) — the event behind equation (6).
//
// With the paper's real parameters these events take centuries, so tests
// and benches run scaled-down MTTF/MTTR where the same formulas apply and
// events are observable; the point is validating the FORMULA, which is
// scale-free in MTTF/MTTR ratio.
struct ReliabilitySimConfig {
  int num_disks = 100;
  int parity_group_size = 5;  // C
  Scheme scheme = Scheme::kStreamingRaid;
  double mttf_hours = 1000.0;
  double mttr_hours = 10.0;
  int trials = 200;
  uint64_t seed = 1234;
  // Worker threads for the trial loop: 0 = the process-wide
  // ThreadPool::Shared() (FTMS_THREADS, else hardware concurrency), 1 = run
  // inline on the calling thread, N > 1 = a pool of N workers that lives
  // for the call. Trials are independent and each runs on its own RNG
  // stream (seed ^ SplitMix64Hash(trial)), so every estimate is
  // bit-identical at any thread count.
  int threads = 0;
  // Metrics sink override: null uses MetricsRegistry::Global() when
  // FTMS_METRICS=1, else no metrics. Estimates are published at the serial
  // fold (after all trials), so the values are thread-count invariant.
  class MetricsRegistry* metrics = nullptr;
};

struct ReliabilityEstimate {
  double mean_hours = 0;
  double ci95_hours = 0;  // 95% confidence half-width
  int trials = 0;
};

// Mean time until catastrophic failure for the configured scheme.
StatusOr<ReliabilityEstimate> EstimateMttfCatastrophic(
    const ReliabilitySimConfig& config);

// Mean time until `k_concurrent` disks are down simultaneously.
StatusOr<ReliabilityEstimate> EstimateKConcurrent(
    const ReliabilitySimConfig& config, int k_concurrent);

// Mean time until `k_clusters` distinct clusters have a failed disk at
// the same time — the Non-clustered scheme's exact degradation event:
// the (K+1)-st degraded cluster finds all K buffer servers busy
// (Section 3). With sparse failures this coincides with k-concurrent
// disks (two failures rarely share a cluster), which is why the paper
// uses equation (6) for it.
StatusOr<ReliabilityEstimate> EstimateKDegradedClusters(
    const ReliabilitySimConfig& config, int k_clusters);

}  // namespace ftms

#endif  // FTMS_RELIABILITY_MARKOV_SIM_H_
