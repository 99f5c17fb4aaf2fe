#include "reliability/markov_sim.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "layout/layout.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

struct Event {
  double time;
  int disk;
  bool is_failure;  // false = repair completion
};
struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.time > b.time;
  }
};

Status Validate(const ReliabilitySimConfig& c) {
  if (c.num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  if (c.parity_group_size < 2) {
    return Status::InvalidArgument("parity group size must be >= 2");
  }
  if (c.mttf_hours <= 0 || c.mttr_hours <= 0) {
    return Status::InvalidArgument("MTTF/MTTR must be positive");
  }
  if (c.trials <= 0) {
    return Status::InvalidArgument("trials must be positive");
  }
  if (c.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  return Status::Ok();
}

// Per-worker simulation state, allocated once per chunk of trials and
// reused — the trial loop itself is allocation-free after the first trial
// of a chunk (the event heap and the per-cluster counters keep their
// capacity across trials).
struct TrialScratch {
  std::vector<int> down_in_cluster;
  std::vector<uint8_t> down;
  std::vector<Event> heap_storage;
};

// One trial: simulate until `stop(down_per_cluster, total_down, disk)`
// returns true right after a failure event; returns the event time.
template <typename StopFn>
double RunTrial(const ReliabilitySimConfig& c, int cluster_size, Rng& rng,
                TrialScratch& scratch, StopFn stop) {
  const int clusters = (c.num_disks + cluster_size - 1) / cluster_size;
  scratch.down_in_cluster.assign(static_cast<size_t>(clusters), 0);
  scratch.down.assign(static_cast<size_t>(c.num_disks), 0);
  int total_down = 0;

  // Min-heap on the scratch vector (std::push_heap/pop_heap with the
  // inverted comparator) so the event queue's buffer survives the trial.
  std::vector<Event>& heap = scratch.heap_storage;
  heap.clear();
  heap.reserve(static_cast<size_t>(c.num_disks) + 1);
  const EventLater later;
  for (int d = 0; d < c.num_disks; ++d) {
    heap.push_back(Event{rng.ExponentialMean(c.mttf_hours), d, true});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event ev = heap.back();
    heap.pop_back();
    const size_t disk = static_cast<size_t>(ev.disk);
    const size_t cluster = static_cast<size_t>(ev.disk / cluster_size);
    if (ev.is_failure) {
      scratch.down[disk] = 1;
      ++scratch.down_in_cluster[cluster];
      ++total_down;
      if (stop(scratch.down_in_cluster, total_down, ev.disk)) return ev.time;
      heap.push_back(
          Event{ev.time + rng.ExponentialMean(c.mttr_hours), ev.disk, false});
    } else {
      scratch.down[disk] = 0;
      --scratch.down_in_cluster[cluster];
      --total_down;
      heap.push_back(
          Event{ev.time + rng.ExponentialMean(c.mttf_hours), ev.disk, true});
    }
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return 0;  // unreachable: the heap is never empty
}

// Publishes one finished estimate into the metrics registry, keyed by the
// estimate kind ("catastrophic", "k_concurrent", "k_degraded_clusters").
// Runs strictly after the parallel trial loop, on the calling thread.
void PublishEstimate(const ReliabilitySimConfig& c, const char* kind,
                     const ReliabilityEstimate& est) {
  MetricsRegistry* registry =
      c.metrics != nullptr ? c.metrics : MetricsRegistry::GlobalIfEnabled();
  if (registry == nullptr) return;
  registry
      ->GetCounter(
          LabeledName("ftms_reliability_trials_total", {{"kind", kind}}),
          "Monte Carlo trials contributing to this reliability estimate")
      ->Add(est.trials);
  registry
      ->GetGauge(
          LabeledName("ftms_reliability_mean_hours", {{"kind", kind}}),
          "Estimated mean hours to the event named by the kind label")
      ->Set(est.mean_hours);
  registry
      ->GetGauge(
          LabeledName("ftms_reliability_ci95_hours", {{"kind", kind}}),
          "Half-width of the 95% confidence interval on the mean")
      ->Set(est.ci95_hours);
}

// Runs `c.trials` independent trials, each on its own deterministic RNG
// stream, parallelized over the pool `c.threads` selects. The per-trial
// results are gathered positionally and folded into the estimate in trial
// order, so the returned numbers are bit-identical for any `c.threads`.
template <typename StopFn>
ReliabilityEstimate RunTrials(const ReliabilitySimConfig& c,
                              int cluster_size, const char* kind,
                              StopFn stop) {
  std::vector<double> times(static_cast<size_t>(c.trials), 0.0);
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool* pool = nullptr;
  if (c.threads > 1) {
    local_pool = std::make_unique<ThreadPool>(c.threads);
    pool = local_pool.get();
  } else if (c.threads == 0 && ThreadPool::DefaultThreadCount() > 1) {
    pool = &ThreadPool::Shared();
  }
  ParallelFor(pool, 0, c.trials, [&](int64_t lo, int64_t hi) {
    TrialScratch scratch;
    for (int64_t t = lo; t < hi; ++t) {
      // One scope per TRIAL (the logical work unit), never per chunk:
      // chunk shapes vary with the thread count, trial counts do not.
      FTMS_PROF_SCOPE("reliability/trial");
      Rng rng(c.seed ^ SplitMix64Hash(static_cast<uint64_t>(t)));
      times[static_cast<size_t>(t)] =
          RunTrial(c, cluster_size, rng, scratch, stop);
    }
  });

  StreamingStats stats;
  for (double t : times) stats.Add(t);
  ReliabilityEstimate est;
  est.mean_hours = stats.mean();
  est.ci95_hours = stats.ConfidenceHalfWidth95();
  est.trials = static_cast<int>(stats.count());
  PublishEstimate(c, kind, est);
  return est;
}

}  // namespace

StatusOr<ReliabilityEstimate> EstimateMttfCatastrophic(
    const ReliabilitySimConfig& config) {
  FTMS_RETURN_IF_ERROR(Validate(config));
  StatusOr<std::unique_ptr<Layout>> created =
      CreateLayout(config.scheme, config.num_disks, config.parity_group_size);
  if (!created.ok()) return created.status();
  const Layout& layout = **created;
  // A trial ends at the first failure that loses a group; only groups
  // touching the failed disk's cluster can have changed.
  return RunTrials(config, layout.disks_per_cluster(), "catastrophic",
                   [&layout](const std::vector<int>& down_per_cluster,
                             int /*total*/, int disk) {
                     return layout.LosesGroupAt(down_per_cluster,
                                                layout.ClusterOfDisk(disk));
                   });
}

StatusOr<ReliabilityEstimate> EstimateKDegradedClusters(
    const ReliabilitySimConfig& config, int k_clusters) {
  FTMS_RETURN_IF_ERROR(Validate(config));
  const int cluster_size = config.parity_group_size;
  if (config.num_disks % cluster_size != 0) {
    return Status::InvalidArgument(
        "num_disks must be a multiple of the cluster size");
  }
  const int clusters = config.num_disks / cluster_size;
  if (k_clusters < 1 || k_clusters > clusters) {
    return Status::InvalidArgument("k_clusters out of range");
  }
  return RunTrials(
      config, cluster_size, "k_degraded_clusters",
      [k_clusters](const std::vector<int>& down_per_cluster, int, int) {
        int degraded = 0;
        for (int d : down_per_cluster) {
          if (d > 0) ++degraded;
        }
        return degraded >= k_clusters;
      });
}

StatusOr<ReliabilityEstimate> EstimateKConcurrent(
    const ReliabilitySimConfig& config, int k_concurrent) {
  FTMS_RETURN_IF_ERROR(Validate(config));
  if (k_concurrent < 1 || k_concurrent > config.num_disks) {
    return Status::InvalidArgument("k_concurrent out of range");
  }
  return RunTrials(config, config.parity_group_size, "k_concurrent",
                   [k_concurrent](const std::vector<int>&, int total, int) {
                     return total >= k_concurrent;
                   });
}

}  // namespace ftms
