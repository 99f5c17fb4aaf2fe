// VOD operations console: the full Figure 1 pipeline in one run —
// a tertiary library feeding a disk working set through LRU staging,
// viewers queueing when admission is full, a disk failure with online
// spare rebuild, and a per-cycle CSV timeline written for plotting.
//
//   $ ./vod_operations [minutes_simulated] [timeline.csv]

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "layout/schemes.h"
#include "server/server.h"
#include "server/staging.h"
#include "stream/request_queue.h"
#include "stream/workload.h"
#include "util/metrics.h"
#include "util/timeseries.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace ftms;
  const double minutes = argc > 1 ? std::atof(argv[1]) : 20.0;
  const std::string timeline_path =
      argc > 2 ? argv[2] : "/tmp/ftms_vod_timeline.csv";

  // A deliberately small server so admission pressure and staging churn
  // actually happen within the demo horizon.
  ServerConfig config;
  config.scheme = Scheme::kNonClustered;  // memory-lean scheme
  config.parity_group_size = 5;
  config.params.num_disks = 10;
  config.params.k_reserve = 2;
  config.params.disk.capacity_mb = 50.0;  // 1000 tracks per disk
  config.admission_override = 12;
  // Per-cycle timeline: the scheduler pushes its own curves (active
  // streams, buffer occupancy, hiccups, degraded reads, disk queue depth)
  // at every cycle end and samples the registry series added below at the
  // same point.
  TimeSeriesRecorder timeline;
  config.timeseries = &timeline;
  MetricsRegistry::SetGlobalEnabled(true);
  auto server = std::move(MultimediaServer::Create(config).value());

  const MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string scheme(SchemeAbbrev(config.scheme));
  const std::string series =
      "sched." + server->scheduler().timeseries_prefix() + ".";
  const auto counter = [&](std::string_view family) {
    return registry.FindCounter(LabeledName(family, {{"scheme", scheme}}));
  };
  timeline.AddCounterSeries(series + "delivered_per_s",
                            counter("ftms_sched_tracks_delivered_total"),
                            /*as_rate=*/true);
  timeline.AddCounterSeries(series + "dropped_reads_per_s",
                            counter("ftms_sched_dropped_reads_total"),
                            /*as_rate=*/true);
  for (int c = 0; c < server->scheduler().num_clusters(); ++c) {
    const std::string cluster = std::to_string(c);
    timeline.AddCounterSeries(
        series + "reconstructed_per_s.cluster" + cluster,
        registry.FindCounter(
            LabeledName("ftms_sched_reconstructions_total",
                        {{"scheme", scheme}, {"cluster", cluster}})),
        /*as_rate=*/true);
  }
  timeline.AddGaugeSeries(
      series + "failed_disks",
      registry.FindGauge(
          LabeledName("ftms_sched_failed_disks", {{"scheme", scheme}})));

  // The permanent library lives on tape; only a few titles fit on disk.
  TertiaryStore tertiary{TertiaryParameters{}};
  std::set<int> active_titles;
  StagingManager staging(
      &server->mutable_catalog(), &tertiary, config.params.disk.track_mb,
      [&](int id) { return active_titles.count(id) == 0; });
  std::vector<MediaObject> library;
  for (int i = 0; i < 10; ++i) {
    MediaObject title;
    title.id = i;
    title.name = "title_" + std::to_string(i);
    title.rate_mb_s = config.params.object_rate_mb_s;
    title.num_tracks = 2000;  // ~8.9 minutes of video
    library.push_back(title);
    staging.AddToLibrary(title).ok();
  }

  WorkloadConfig wconfig;
  wconfig.arrival_rate_per_s = 0.05;
  wconfig.zipf_theta = 0.5;
  wconfig.seed = 7;
  WorkloadGenerator workload(wconfig, library);
  RequestQueue queue(/*patience_s=*/300.0);

  const double horizon_s = minutes * 60.0;
  std::vector<StreamRequest> arrivals = workload.GenerateUntil(horizon_s);
  size_t next = 0;
  int served = 0;
  int staged_waits = 0;
  bool failed_once = false;
  std::map<int, double> title_ready_s;  // staging completion times

  auto try_start = [&](const StreamRequest& request, double now) -> bool {
    StatusOr<double> ready = staging.EnsureResident(request.object_id, now);
    if (!ready.ok()) return false;  // no space: viewer keeps waiting
    if (*ready > now) {
      ++staged_waits;
      title_ready_s[request.object_id] = *ready;
      return false;  // staging in progress; retry later
    }
    auto pending = title_ready_s.find(request.object_id);
    if (pending != title_ready_s.end() && pending->second > now) {
      return false;  // tape transfer still running
    }
    if (!server->StartStream(request.object_id).ok()) return false;
    active_titles.insert(request.object_id);
    staging.MarkUse(request.object_id, now);
    ++served;
    return true;
  };

  while (server->NowSeconds() < horizon_s) {
    const double now = server->NowSeconds();
    // New arrivals join the queue; the queue head retries each cycle.
    while (next < arrivals.size() && arrivals[next].arrival_s <= now) {
      queue.Enqueue(arrivals[next], now);
      ++next;
    }
    while (const StreamRequest* head = queue.Peek(now)) {
      if (!try_start(*head, now)) break;  // capacity or tape transfer
      StreamRequest admitted;
      queue.Dequeue(now, &admitted);
    }
    // Operational drama mid-run: a disk dies and a spare rebuild starts.
    if (!failed_once && now > horizon_s / 3) {
      failed_once = true;
      server->FailDisk(2).ok();
      server->StartRebuild(2).ok();
      std::printf("[%8.1f s] disk 2 failed; spare rebuild started\n", now);
    }
    server->RunCycles(1);
    // Titles with no active stream become evictable.
    std::set<int> still_active;
    for (const auto& s : server->scheduler().streams()) {
      if (s->state() == StreamState::kActive) {
        still_active.insert(s->object().id);
      }
    }
    active_titles = still_active;
  }

  timeline.WriteCsv(timeline_path).ok();
  const SchedulerMetrics& m = server->scheduler().metrics();
  std::printf("\n==== end of shift (%.0f min simulated) ====\n", minutes);
  std::printf("viewers served            : %d (of %zu arrivals)\n", served,
              arrivals.size());
  std::printf("still queued / reneged    : %zu / %lld\n", queue.size(),
              static_cast<long long>(queue.reneged_total()));
  std::printf("mean admission wait       : %.1f s (max %.1f)\n",
              queue.wait_stats().mean(), queue.wait_stats().max());
  std::printf("titles staged from tape   : %lld (%.0f MB moved, %lld "
              "evictions)\n",
              static_cast<long long>(staging.stage_ins()),
              staging.mb_staged(),
              static_cast<long long>(staging.evictions()));
  std::printf("spare rebuild             : %s (%.0f%% done)\n",
              server->rebuild().Active() ? "in progress" : "complete",
              server->rebuild().Progress() * 100);
  std::printf("delivered / hiccups       : %lld / %lld\n",
              static_cast<long long>(m.tracks_delivered),
              static_cast<long long>(m.hiccups));
  std::printf("timeline CSV              : %s (%zu series, %lld cycles)\n",
              timeline_path.c_str(), timeline.num_series(),
              static_cast<long long>(server->scheduler().cycle()));
  return 0;
}
