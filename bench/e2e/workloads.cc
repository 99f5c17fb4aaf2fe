// The four workloads of the end-to-end benchmark. A drill builds its
// server from the seed, drives it through public APIs only, and tears it
// down. Every phase is given in simulated seconds (times the scale), so a
// change to cycle length does not change the amount of work. README.md
// says why each workload exists.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "reliability/failure_process.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "stream/workload.h"
#include "util/disk_set.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/timeseries.h"
#include "verify/datapath.h"

namespace ftms::e2e {
namespace {

// Every reconstructed track is byte-compared; direct reads on a sample.
constexpr int64_t kDirectSampleEvery = 16;

void Fail(Drill* drill, std::string message) {
  ++drill->counts.unexpected_errors;
  if (drill->errors.size() < 8) drill->errors.push_back(std::move(message));
}

// Brackets a measured section: its wall time counts toward the drill's
// loop, and a traced drill's profiler records only inside it.
class Measured {
 public:
  Measured(const DrillOptions& options, Drill* drill)
      : traced_(options.tracer != nullptr), drill_(drill) {
    if (traced_) Profiler::SetGlobalEnabled(true);
    start_ = Clock::now();
  }
  ~Measured() {
    drill_->loop_wall_s += SecondsSince(start_);
    if (traced_) {
      Profiler::FoldAtSyncPoint();
      Profiler::SetGlobalEnabled(false);
    }
  }
  Measured(const Measured&) = delete;
  Measured& operator=(const Measured&) = delete;

 private:
  bool traced_;
  Drill* drill_;
  Clock::time_point start_;
};

int64_t CyclesFor(double sim_s, const MultimediaServer& server) {
  return std::max<int64_t>(
      1, std::llround(sim_s / server.scheduler().CycleSeconds()));
}

int64_t SimMicros(const MultimediaServer& server) {
  return std::llround(server.NowSeconds() * 1e6);
}

// A data-role disk chosen from the seed: losing a dedicated parity disk
// would leave the data path untouched and make the work seed-dependent.
int PickDataDisk(const MultimediaServer& server, Rng* rng) {
  const int per_cluster = server.layout().disks_per_cluster();
  const int data_slots =
      per_cluster - ParityDisksPerCluster(server.config().scheme);
  const int cluster = static_cast<int>(
      rng->UniformInt(static_cast<uint64_t>(server.layout().num_clusters())));
  return cluster * per_cluster +
         static_cast<int>(rng->UniformInt(static_cast<uint64_t>(data_slots)));
}

// One title holding `fill` of the farm's data capacity, in whole groups.
MediaObject FillingTitle(const MultimediaServer& server, int id,
                         double fill) {
  const int64_t per_group = server.layout().DataBlocksPerGroup();
  MediaObject title;
  title.id = id;
  title.name = "title_" + std::to_string(id);
  title.rate_mb_s = server.config().params.object_rate_mb_s;
  title.num_tracks =
      static_cast<int64_t>(
          fill * static_cast<double>(server.catalog().data_track_capacity())) /
      per_group * per_group;
  return title;
}

StatusOr<StreamId> Start(MultimediaServer& server, int object_id,
                         Drill* drill) {
  const Clock::time_point start = Clock::now();
  StatusOr<StreamId> id = server.StartStream(object_id);
  drill->start_s += SecondsSince(start);
  ++drill->counts.starts;
  if (id.ok()) {
    ++drill->counts.admitted;
  } else if (id.status().code() == StatusCode::kResourceExhausted) {
    ++drill->counts.rejected;
  } else {
    Fail(drill, "StartStream: " + id.status().ToString());
  }
  return id;
}

// Viewers still holding resources leave at the end of a drill.
void StopAll(MultimediaServer& server, Drill* drill) {
  const auto& streams = server.scheduler().streams();
  for (const auto& stream : streams) {
    const StreamState state = stream->state();
    if (state != StreamState::kActive && state != StreamState::kPaused) {
      continue;
    }
    const Clock::time_point start = Clock::now();
    const Status status = server.StopStream(stream->id());
    drill->stop_s += SecondsSince(start);
    ++drill->counts.stops;
    if (!status.ok()) Fail(drill, "StopStream: " + status.ToString());
  }
}

// Adds the scheduler's counter growth since `before` to the drill.
void AddSchedulerDelta(const SchedulerMetrics& before,
                       const SchedulerMetrics& after, Counts* c) {
  c->cycles += after.cycles - before.cycles;
  c->tracks_ontime += after.tracks_delivered - before.tracks_delivered;
  c->hiccups += after.hiccups - before.hiccups;
  c->tracks_due += after.tracks_delivered + after.hiccups -
                   before.tracks_delivered - before.hiccups;
  c->sched_reads += after.data_reads + after.parity_reads -
                    before.data_reads - before.parity_reads;
  c->dropped_reads += after.dropped_reads - before.dropped_reads;
  c->sched_reconstructed += after.reconstructed - before.reconstructed;
}

void SampleSlots(const MultimediaServer& server, Counts* c) {
  const int disks = server.disks().num_disks();
  for (int d = 0; d < disks; ++d) {
    c->slots_used += server.scheduler().SlotsUsedLastCycle(d);
  }
  c->slots_offered +=
      static_cast<int64_t>(disks) * server.scheduler().slots_per_disk();
}

// A byte-moving drill in progress. After every cycle it reads, the way
// the server would stream them out, every track the scheduler delivered
// on time: a direct synthesis for a track on a live disk (the "disk
// read"), the XOR or P+Q reconstruction for a track on a failed one. The
// tracks are found from each stream's position change minus its new
// Hiccup entries. Each track passes through one reused buffer, as if
// transmitted right away, so the datapath works from cache: a buffer per
// track would make the run measure the machine's contended memory
// bandwidth instead.
class ByteServe {
 public:
  ByteServe(MultimediaServer* server, const MediaObject& title,
            const DrillOptions& options, Drill* drill)
      : server_(server),
        layout_(server->layout()),
        title_(title),
        tracer_(options.tracer),
        drill_(drill),
        cycle_s_(server->scheduler().CycleSeconds()),
        per_group_(layout_.DataBlocksPerGroup()) {
    // First-touch set-up, paid here rather than in the first measured
    // cycle: the buffers and the reconstruction scratch, sized by one
    // degraded read.
    expected_.assign(kBlockBytes, 0);
    DiskSet failed;
    failed.Add(layout_.DataLocation(title_.id, 0).disk);
    ReadTrackDegradedInto(layout_, title_.id, 0, title_.num_tracks, failed,
                          kBlockBytes, &scratch_, &read_)
        .ok();
    for (const auto& stream : server->scheduler().streams()) {
      prev_pos_.push_back(stream->position());
      prev_hiccups_.push_back(stream->hiccups().size());
    }
    delivered_ = server->scheduler().metrics().tracks_delivered;
  }

  int64_t TracksOnDisk(int disk) const {
    int64_t n = 0;
    for (int64_t t = 0; t < title_.num_tracks; ++t) {
      if (layout_.DataLocation(title_.id, t).disk == disk) ++n;
    }
    return n;
  }

  void RunFor(double sim_s) {
    for (int64_t i = CyclesFor(sim_s, *server_); i > 0; --i) Cycle();
  }

  void FailDisk(int disk) {
    FTMS_E2E_SPAN(tracer_, "server/fail_disk");
    const Status status = server_->FailDisk(disk, /*mid_cycle=*/true);
    ++drill_->counts.disk_failures;
    if (!status.ok()) Fail(drill_, "FailDisk: " + status.ToString());
  }

  // Rebuilds `disk` onto a spare with real bytes (AttachDataPath), cycle
  // by cycle, until the RebuildManager repairs it. `expected` is the
  // number of title tracks the disk holds.
  void Rebuild(int disk, int64_t expected) {
    RebuildManager& rebuild = server_->mutable_rebuild();
    {
      FTMS_E2E_SPAN(tracer_, "rebuild/start");
      Status status = rebuild.AttachDataPath(title_.id, title_.num_tracks,
                                             kBlockBytes);
      if (status.ok()) status = server_->StartRebuild(disk);
      if (!status.ok()) {
        Fail(drill_, "StartRebuild: " + status.ToString());
        return;
      }
    }
    Counts& c = drill_->counts;
    const int64_t start_us = SimMicros(*server_);
    const double verify_before = drill_->verify_s;
    const Clock::time_point start = Clock::now();
    // Any idle slot regenerates a track, so a rebuild that outlives this
    // bound is stuck.
    const int64_t limit = rebuild.tracks_total() + 1000;
    int64_t cycles = 0;
    while (rebuild.Active()) {
      if (cycles > limit) {
        Fail(drill_, "rebuild of disk " + std::to_string(disk) + " stuck");
        return;
      }
      const int64_t done = rebuild.tracks_rebuilt();
      Cycle();
      ++cycles;
      if (rebuild.Active() && rebuild.tracks_rebuilt() == done) {
        ++c.rebuild_stalled;
      }
    }
    drill_->rebuild_s +=
        SecondsSince(start) - (drill_->verify_s - verify_before);
    ++c.rebuilds;
    ++c.repairs;
    c.rebuild_cycles += cycles;
    c.rebuild_window_us += SimMicros(*server_) - start_us;
    c.rebuild_sim_tracks += rebuild.tracks_total();
    c.rebuild_tracks += rebuild.data_tracks_reconstructed();
    // Regenerating a track reads one unit per data member of its group:
    // the surviving data plus as many parity units as were erased.
    c.rebuild_source_bytes += rebuild.data_tracks_reconstructed() *
                              per_group_ *
                              static_cast<int64_t>(kBlockBytes);
    c.rebuild_mismatches += rebuild.data_mismatches();
    if (rebuild.data_tracks_pending() != 0 ||
        rebuild.data_tracks_reconstructed() != expected) {
      Fail(drill_, "rebuild of disk " + std::to_string(disk) +
                       " regenerated " +
                       std::to_string(rebuild.data_tracks_reconstructed()) +
                       " of " + std::to_string(expected) + " tracks");
    }
  }

 private:
  void Cycle() {
    if (tracer_ != nullptr) tracer_->set_cycle(server_->cycle());
    const Clock::time_point start = Clock::now();
    {
      FTMS_E2E_SPAN(tracer_, "server/run_cycle");
      server_->RunCycles(1);
    }
    Scan();
    const double verify_before = drill_->verify_s;
    Read();
    drill_->cycle_load.push_back(
        (SecondsSince(start) - (drill_->verify_s - verify_before)) /
        cycle_s_);
  }

  void Scan() {
    FTMS_E2E_SPAN(tracer_, "bench/scan");
    SampleSlots(*server_, &drill_->counts);
    failed_.Clear();
    if (server_->disks().NumFailed() > 0) {
      for (const int d : server_->disks().FailedDisks()) failed_.Add(d);
    }
    direct_.clear();
    reconstruct_.clear();
    const auto& streams = server_->scheduler().streams();
    for (size_t i = 0; i < streams.size(); ++i) {
      const Stream& stream = *streams[i];
      const int64_t pos = stream.position();
      if (pos == prev_pos_[i]) continue;
      const std::vector<Hiccup>& hiccups = stream.hiccups();
      for (int64_t t = prev_pos_[i]; t < pos; ++t) {
        bool missed = false;
        for (size_t h = prev_hiccups_[i]; h < hiccups.size(); ++h) {
          missed = missed || hiccups[h].track == t;
        }
        if (missed) continue;
        (failed_.Contains(layout_.DataLocation(title_.id, t).disk)
             ? reconstruct_
             : direct_)
            .push_back(t);
      }
      prev_pos_[i] = pos;
      prev_hiccups_[i] = hiccups.size();
    }
    // The scan must find exactly the tracks the scheduler counted on time.
    const int64_t delivered = server_->scheduler().metrics().tracks_delivered;
    if (delivered - delivered_ !=
        static_cast<int64_t>(direct_.size() + reconstruct_.size())) {
      Fail(drill_, "cycle " + std::to_string(server_->cycle()) +
                       ": on-time tracks found differ from the scheduler's");
    }
    delivered_ = delivered;
  }

  // Reads one track and, when `check`, byte-compares it with ground
  // truth; the comparison is timed apart from the read.
  void ReadOne(int64_t track, bool expect_reconstructed, bool check) {
    const Status status =
        ReadTrackDegradedInto(layout_, title_.id, track, title_.num_tracks,
                              failed_, kBlockBytes, &scratch_, &read_);
    if (!status.ok()) {
      ++drill_->counts.datapath_failures;
      if (drill_->errors.size() < 8) {
        drill_->errors.push_back("track " + std::to_string(track) +
                                 " delivered on time but unreadable: " +
                                 status.ToString());
      }
      return;
    }
    if (read_.reconstructed != expect_reconstructed) {
      Fail(drill_, "track " + std::to_string(track) + " took the wrong path");
    }
    if (!check) return;
    const Clock::time_point start = Clock::now();
    {
      FTMS_E2E_SPAN(tracer_, "bench/verify");
      SynthesizeDataBlockInto(title_.id, track, kBlockBytes, &expected_);
      if (read_.data != expected_) ++drill_->counts.mismatches;
    }
    drill_->verify_s += SecondsSince(start);
  }

  void Read() {
    Counts& c = drill_->counts;
    {
      FTMS_E2E_SPAN(tracer_, "verify/read_direct");
      for (const int64_t track : direct_) {
        // Direct reads are plain synthesis: a fixed sample suffices.
        const bool check = direct_seen_++ % kDirectSampleEvery == 0;
        c.sampled_checks += check ? 1 : 0;
        ReadOne(track, false, check);
      }
    }
    {
      FTMS_E2E_SPAN(tracer_, "verify/read_reconstruct");
      for (const int64_t track : reconstruct_) ReadOne(track, true, true);
    }
    c.direct_reads += static_cast<int64_t>(direct_.size());
    c.reconstructed_reads += static_cast<int64_t>(reconstruct_.size());
    // Title groups are whole, so every reconstruction reads per_group_
    // surviving units (data survivors plus one parity unit per erasure).
    c.source_bytes += static_cast<int64_t>(reconstruct_.size()) * per_group_ *
                      static_cast<int64_t>(kBlockBytes);
  }

  MultimediaServer* server_;
  const Layout& layout_;
  MediaObject title_;
  Tracer* tracer_;
  Drill* drill_;
  double cycle_s_;
  int64_t per_group_;
  std::vector<int64_t> prev_pos_;
  std::vector<size_t> prev_hiccups_;
  DiskSet failed_;
  std::vector<int64_t> direct_;
  std::vector<int64_t> reconstruct_;
  TrackRead read_;
  DegradedReadScratch scratch_;
  Block expected_;
  int64_t delivered_ = 0;  // scheduler's on-time count after the last scan
  int64_t direct_seen_ = 0;
};

// sr_degraded_serve: Streaming RAID at 75% of admitted capacity serves
// real bytes through a mid-cycle failure, degraded operation, a byte-level
// rebuild and recovery. Foreground delivery dominates.
Status SrDegradedServe(const DrillOptions& options, Drill* drill) {
  Rng rng(options.seed);
  const Clock::time_point setup_start = Clock::now();
  ServerConfig config;
  config.scheme = Scheme::kStreamingRaid;
  config.parity_group_size = 5;
  config.params.num_disks = 20;
  config.params.disk.capacity_mb = 100.0 * options.scale;
  StatusOr<std::unique_ptr<MultimediaServer>> built =
      MultimediaServer::Create(config);
  if (!built.ok()) return built.status();
  MultimediaServer& server = **built;
  const MediaObject title = FillingTitle(
      server, 1 + static_cast<int>(rng.UniformInt(64)), 0.9);
  FTMS_RETURN_IF_ERROR(server.AddObject(title));
  // SR reads a whole group per cycle on the group's cluster, so streams
  // admitted one cluster's worth per cycle spread evenly over clusters.
  const int streams = server.admission().capacity() * 3 / 4;
  const int clusters = server.layout().num_clusters();
  const int per_cycle = (streams + clusters - 1) / clusters;
  for (int i = 0; i < streams; ++i) {
    Start(server, title.id, drill);
    if ((i + 1) % per_cycle == 0) server.RunCycles(1);
  }
  ByteServe serve(&server, title, options, drill);
  const int disk = PickDataDisk(server, &rng);
  const int64_t expected = serve.TracksOnDisk(disk);
  drill->setup_s = SecondsSince(setup_start);
  {
    Measured measured(options, drill);
    const SchedulerMetrics before = server.scheduler().metrics();
    serve.RunFor(320 * options.scale);
    if (server.scheduler().metrics().hiccups != before.hiccups) {
      Fail(drill, "hiccups before any failure at 75% of capacity");
    }
    serve.FailDisk(disk);
    serve.RunFor(210 * options.scale);
    serve.Rebuild(disk, expected);
    serve.RunFor(320 * options.scale);
    AddSchedulerDelta(before, server.scheduler().metrics(), &drill->counts);
  }
  drill->counts.buffer_peak += server.scheduler().buffer_pool().peak_in_use();
  StopAll(server, drill);
  return Status::Ok();
}

// nc2_double_rebuild: the night-time load on a P+Q array. Two data disks
// of one cluster fail together; both are rebuilt in turn with real bytes,
// the first through two-erasure reconstruction.
Status Nc2DoubleRebuild(const DrillOptions& options, Drill* drill) {
  Rng rng(options.seed);
  const Clock::time_point setup_start = Clock::now();
  ServerConfig config;
  config.scheme = Scheme::kNonClustered2;
  config.parity_group_size = 6;
  config.params.num_disks = 24;
  config.params.disk.capacity_mb *= options.scale;
  StatusOr<std::unique_ptr<MultimediaServer>> built =
      MultimediaServer::Create(config);
  if (!built.ok()) return built.status();
  MultimediaServer& server = **built;
  const MediaObject title = FillingTitle(
      server, 1 + static_cast<int>(rng.UniformInt(64)), 0.9);
  FTMS_RETURN_IF_ERROR(server.AddObject(title));
  for (int i = 0; i < 24; ++i) {  // one admission per cycle spreads them
    Start(server, title.id, drill);
    server.RunCycles(1);
  }
  ByteServe serve(&server, title, options, drill);
  const int per_cluster = server.layout().disks_per_cluster();
  const int data_slots = per_cluster - 2;
  const int cluster = static_cast<int>(
      rng.UniformInt(static_cast<uint64_t>(server.layout().num_clusters())));
  const int pos_a = static_cast<int>(rng.UniformInt(data_slots));
  const int pos_b =
      (pos_a + 1 + static_cast<int>(rng.UniformInt(data_slots - 1))) %
      data_slots;
  const int disk_a = cluster * per_cluster + pos_a;
  const int disk_b = cluster * per_cluster + pos_b;
  const int64_t expected_a = serve.TracksOnDisk(disk_a);
  const int64_t expected_b = serve.TracksOnDisk(disk_b);
  drill->setup_s = SecondsSince(setup_start);
  {
    Measured measured(options, drill);
    const SchedulerMetrics before = server.scheduler().metrics();
    serve.FailDisk(disk_a);
    serve.FailDisk(disk_b);
    serve.RunFor(50 * options.scale);
    serve.Rebuild(disk_a, expected_a);
    serve.Rebuild(disk_b, expected_b);
    serve.RunFor(100 * options.scale);
    AddSchedulerDelta(before, server.scheduler().metrics(), &drill->counts);
  }
  drill->counts.buffer_peak += server.scheduler().buffer_pool().peak_in_use();
  StopAll(server, drill);
  return Status::Ok();
}

// Accounting-only cycles for `sim_s`: the scheduler does all the work.
void RunAccountingFor(double sim_s, MultimediaServer& server,
                      const DrillOptions& options, Drill* drill) {
  for (int64_t i = CyclesFor(sim_s, server); i > 0; --i) {
    if (options.tracer != nullptr) options.tracer->set_cycle(server.cycle());
    const Clock::time_point start = Clock::now();
    {
      FTMS_E2E_SPAN(options.tracer, "server/run_cycle");
      server.RunCycles(1);
    }
    {
      FTMS_E2E_SPAN(options.tracer, "bench/scan");
      SampleSlots(server, &drill->counts);
    }
    drill->cycle_load.push_back(SecondsSince(start) /
                                server.scheduler().CycleSeconds());
  }
}

struct FarmScheme {
  Scheme scheme;
  int c;
  int disks;
  int streams;  // admitted; near each scheme's realizable capacity
  int stagger;  // admissions per cycle (0 = all at once)
};

// farm_sched: the Table-1 farm without bytes, every scheme through
// healthy -> mid-cycle failure -> degraded -> repair.
Status FarmSched(const DrillOptions& options, Drill* drill) {
  static constexpr FarmScheme kSchemes[] = {
      {Scheme::kStreamingRaid, 5, 100, 1040, 0},
      {Scheme::kStaggeredGroup, 5, 100, 960, 0},
      {Scheme::kNonClustered, 5, 100, 960, 12},
      {Scheme::kImprovedBandwidth, 5, 96, 960, 0},
      {Scheme::kStreamingRaid2, 6, 96, 832, 0},
      {Scheme::kNonClustered2, 6, 96, 768, 12},
  };
  const double healthy_s = 600 * options.scale;
  const double degraded_s = 600 * options.scale;
  const double tail_s = 300 * options.scale;
  Rng rng(options.seed);
  for (const FarmScheme& farm : kSchemes) {
    const Clock::time_point setup_start = Clock::now();
    ServerConfig config;
    config.scheme = farm.scheme;
    config.parity_group_size = farm.c;
    config.params.num_disks = farm.disks;
    StatusOr<std::unique_ptr<MultimediaServer>> built =
        MultimediaServer::Create(config);
    if (!built.ok()) return built.status();
    MultimediaServer& server = **built;
    // One title per cluster (its home), long enough that no stream
    // finishes within the drill even when it is served a whole group
    // per cycle.
    const int clusters = server.layout().num_clusters();
    const int64_t cycles = CyclesFor(healthy_s, server) +
                           CyclesFor(degraded_s, server) +
                           CyclesFor(tail_s, server) + farm.streams;
    const int64_t tracks = (cycles + 1) * server.layout().DataBlocksPerGroup();
    const int first_id = clusters * static_cast<int>(rng.UniformInt(8));
    for (int cl = 0; cl < clusters; ++cl) {
      MediaObject title;
      title.id = first_id + cl;
      title.rate_mb_s = config.params.object_rate_mb_s;
      title.num_tracks = tracks;
      FTMS_RETURN_IF_ERROR(server.AddObject(title));
    }
    for (int i = 0; i < farm.streams; ++i) {
      Start(server, first_id + i % clusters, drill);
      if (farm.stagger > 0 && i % farm.stagger == farm.stagger - 1) {
        server.RunCycles(1);
      }
    }
    const int disk = PickDataDisk(server, &rng);
    drill->setup_s += SecondsSince(setup_start);
    {
      Measured measured(options, drill);
      const SchedulerMetrics before = server.scheduler().metrics();
      RunAccountingFor(healthy_s, server, options, drill);
      {
        FTMS_E2E_SPAN(options.tracer, "server/fail_disk");
        if (!server.FailDisk(disk, /*mid_cycle=*/true).ok()) {
          Fail(drill, "FailDisk");
        }
        ++drill->counts.disk_failures;
      }
      RunAccountingFor(degraded_s, server, options, drill);
      {
        FTMS_E2E_SPAN(options.tracer, "server/repair_disk");
        if (!server.RepairDisk(disk).ok()) Fail(drill, "RepairDisk");
        ++drill->counts.repairs;
      }
      RunAccountingFor(tail_s, server, options, drill);
      AddSchedulerDelta(before, server.scheduler().metrics(),
                        &drill->counts);
    }
    drill->counts.buffer_peak +=
        server.scheduler().buffer_pool().peak_in_use();
    StopAll(server, drill);
  }
  return Status::Ok();
}

// vod_churn_observed: an open-loop video-on-demand hour on the Table-1 NC
// farm with every observability sink on. Viewers arrive Poisson with Zipf
// title choice, watch for an exponential time (10% pause once), and disks
// fail and are repaired as a FailureProcess dictates.
class VodChurn {
 public:
  static constexpr double kMeanWatchS = 45 * 60;
  static constexpr double kPauseShare = 0.1;
  static constexpr double kMeanPauseS = 5 * 60;
  static constexpr double kOverload = 1.2;  // arrivals vs departures at capacity
  static constexpr double kFailuresPerDrill = 3;

  VodChurn(const DrillOptions& options, Drill* drill)
      : options_(options), drill_(drill), rng_(options.seed) {}

  Status Run() {
    const Clock::time_point setup_start = Clock::now();
    if (options_.sinks) {
      MetricsRegistry::SetGlobalEnabled(true);
      ledger_.set_journal(&journal_);
    }
    ServerConfig config;
    config.scheme = Scheme::kNonClustered;
    config.parity_group_size = 5;
    config.params.num_disks = 100;
    config.params.k_reserve = 3;
    if (options_.sinks) {
      config.journal = &journal_;
      config.ledger = &ledger_;
      config.timeseries = &timeseries_;
      config.telemetry_port = 0;  // ephemeral loopback port, no scraper
    }
    StatusOr<std::unique_ptr<MultimediaServer>> built =
        MultimediaServer::Create(config);
    if (!built.ok()) return built.status();
    server_ = std::move(*built);
    const std::vector<MediaObject> catalog =
        MakeStandardCatalog(60, 0.1, config.params.track_mb());
    for (const MediaObject& title : catalog) {
      FTMS_RETURN_IF_ERROR(server_->AddObject(title));
    }
    const double horizon_s = 3600 * options_.scale;
    const double capacity = server_->admission().capacity();
    WorkloadConfig arrivals;
    arrivals.arrival_rate_per_s = kOverload * capacity / kMeanWatchS;
    arrivals.seed = rng_.NextUint64();
    WorkloadConfig prefill = arrivals;
    prefill.seed = rng_.NextUint64();
    generator_ = std::make_unique<WorkloadGenerator>(arrivals, catalog);

    // Open the window at steady state: fill the server the way NC
    // admits (a slot's worth of streams per cycle) until admission refuses
    // three requests in a row. Exponential watch times are memoryless, so
    // these viewers leave like any others.
    WorkloadGenerator fill(prefill, catalog);
    const int stagger = server_->scheduler().slots_per_disk();
    for (int refused = 0, admitted = 0; refused < 3;) {
      StatusOr<StreamId> id = Start(*server_, fill.Next().object_id, drill_);
      if (!id.ok()) {
        ++refused;
        continue;
      }
      refused = 0;
      ScheduleViewer(*id);
      if (++admitted % stagger == 0) server_->RunCycles(1);
    }

    DiskParameters lifetimes = config.params.disk;
    const double horizon_h = horizon_s / kSecondsPerHour;
    lifetimes.mttf_hours =
        config.params.num_disks * horizon_h / kFailuresPerDrill;
    lifetimes.mttr_hours = horizon_h / 12;
    StatusOr<DiskArray> shadow =
        DiskArray::Create(config.params.num_disks,
                          server_->layout().disks_per_cluster(), lifetimes);
    if (!shadow.ok()) return shadow.status();
    shadow_ = std::make_unique<DiskArray>(std::move(*shadow));
    failures_ = std::make_unique<FailureProcess>(
        &sim_, shadow_.get(), rng_.NextUint64(),
        FailureProcess::Callbacks{[this](int disk) { Failure(disk); },
                                  [this](int disk) { Repair(disk); }});
    failures_->Start();
    ScheduleArrival();
    if (options_.sinks) {
      MetricsRegistry& registry = MetricsRegistry::Global();
      sim_.BindInstruments(registry.GetCounter("ftms_sim_events_total"),
                           registry.GetGauge("ftms_sim_events_pending"));
    }
    drill_->setup_s = SecondsSince(setup_start);

    const uint64_t publishes_before = PublishCount();
    int64_t sampled_publishes = 0;
    {
      Measured measured(options_, drill_);
      const SchedulerMetrics before = server_->scheduler().metrics();
      const double cycle_s = server_->scheduler().CycleSeconds();
      const int64_t cycles = CyclesFor(horizon_s, *server_);
      Tracer* tracer = options_.tracer;
      for (int64_t k = 0; k < cycles; ++k) {
        if (tracer != nullptr) tracer->set_cycle(server_->cycle());
        const Clock::time_point start = Clock::now();
        {
          FTMS_E2E_SPAN(tracer, "sim/run_until");
          sim_.RunUntil(static_cast<double>(k) * cycle_s);
        }
        {
          FTMS_E2E_SPAN(tracer, "server/run_cycle");
          server_->RunCycles(1);
        }
        // A traced drill times a sample of direct publications: the
        // per-cycle one inside RunCycles has no scope of its own.
        if (tracer != nullptr && options_.sinks && k % 16 == 0) {
          FTMS_E2E_SPAN(tracer, "telemetry/publish");
          server_->PublishTelemetry();
          ++sampled_publishes;
        }
        {
          FTMS_E2E_SPAN(tracer, "bench/scan");
          SampleSlots(*server_, &drill_->counts);
        }
        drill_->cycle_load.push_back(SecondsSince(start) / cycle_s);
      }
      AddSchedulerDelta(before, server_->scheduler().metrics(),
                        &drill_->counts);
    }
    Counts& c = drill_->counts;
    c.sim_events += static_cast<int64_t>(sim_.events_processed());
    c.journal_events += journal_.total_appended();
    c.publishes += static_cast<int64_t>(PublishCount() - publishes_before) -
                   sampled_publishes;
    c.buffer_peak += server_->scheduler().buffer_pool().peak_in_use();
    StopAll(*server_, drill_);
    server_.reset();  // joins the telemetry thread
    if (options_.sinks) MetricsRegistry::SetGlobalEnabled(false);
    return Status::Ok();
  }

 private:
  uint64_t PublishCount() {
    TelemetryHub* hub = server_->telemetry_hub();
    return hub == nullptr ? 0 : hub->publish_count();
  }

  void ScheduleArrival() {
    const StreamRequest request = generator_->Next();
    const int object_id = request.object_id;
    sim_.ScheduleAt(request.arrival_s, [this, object_id] {
      Arrive(object_id);
    });
  }

  void Arrive(int object_id) {
    const StatusOr<StreamId> id = [&] {
      FTMS_E2E_SPAN(options_.tracer, "stream/start");
      return Start(*server_, object_id, drill_);
    }();
    if (id.ok()) ScheduleViewer(*id);
    ScheduleArrival();
  }

  // Departure after an exponential watch; one viewer in ten pauses once.
  void ScheduleViewer(StreamId id) {
    const double watch_s = rng_.ExponentialMean(kMeanWatchS);
    sim_.Schedule(watch_s, [this, id] { Depart(id); });
    if (rng_.Bernoulli(kPauseShare)) {
      sim_.Schedule(rng_.Uniform(0, watch_s), [this, id] { Pause(id); });
    }
  }

  StreamState StateOf(StreamId id) {
    return server_->scheduler().streams()[static_cast<size_t>(id)]->state();
  }

  void Depart(StreamId id) {
    const StreamState state = StateOf(id);
    if (state != StreamState::kActive && state != StreamState::kPaused) {
      return;  // played to the end, or dropped
    }
    FTMS_E2E_SPAN(options_.tracer, "stream/stop");
    const Clock::time_point start = Clock::now();
    const Status status = server_->StopStream(id);
    drill_->stop_s += SecondsSince(start);
    ++drill_->counts.stops;
    if (!status.ok()) Fail(drill_, "StopStream: " + status.ToString());
  }

  void Pause(StreamId id) {
    if (StateOf(id) != StreamState::kActive) return;
    {
      FTMS_E2E_SPAN(options_.tracer, "stream/pause");
      const Status status = server_->PauseStream(id);
      ++drill_->counts.pauses;
      if (!status.ok()) Fail(drill_, "PauseStream: " + status.ToString());
    }
    sim_.Schedule(rng_.ExponentialMean(kMeanPauseS),
                  [this, id] { Resume(id); });
  }

  void Resume(StreamId id) {
    if (StateOf(id) != StreamState::kPaused) return;
    FTMS_E2E_SPAN(options_.tracer, "stream/resume");
    const Status status = server_->ResumeStream(id);
    ++drill_->counts.resumes;
    if (!status.ok()) Fail(drill_, "ResumeStream: " + status.ToString());
  }

  void Failure(int disk) {
    FTMS_E2E_SPAN(options_.tracer, "server/fail_disk");
    ++drill_->counts.disk_failures;
    if (!server_->FailDisk(disk, /*mid_cycle=*/true).ok()) {
      Fail(drill_, "FailDisk");
    }
  }

  void Repair(int disk) {
    FTMS_E2E_SPAN(options_.tracer, "server/repair_disk");
    ++drill_->counts.repairs;
    if (!server_->RepairDisk(disk).ok()) Fail(drill_, "RepairDisk");
  }

  const DrillOptions& options_;
  Drill* drill_;
  Rng rng_;
  // Sinks outlive the server that writes into them.
  EventJournal journal_;
  QosLedger ledger_;
  TimeSeriesRecorder timeseries_;
  Simulator sim_;
  std::unique_ptr<MultimediaServer> server_;
  std::unique_ptr<WorkloadGenerator> generator_;
  std::unique_ptr<DiskArray> shadow_;
  std::unique_ptr<FailureProcess> failures_;
};

Status VodChurnObserved(const DrillOptions& options, Drill* drill) {
  VodChurn churn(options, drill);
  return churn.Run();
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"sr_degraded_serve", SrDegradedServe, 0.05, false},
      {"nc2_double_rebuild", Nc2DoubleRebuild, 0.1, false},
      {"farm_sched", FarmSched, 0.15, false},
      {"vod_churn_observed", VodChurnObserved, 0.02, true},
  };
  return workloads;
}

}  // namespace ftms::e2e
