#include "server/server.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "model/capacity.h"
#include "util/parse.h"

namespace ftms {

namespace {

// ServerConfig::telemetry_port -1 defers to the environment; the
// variable absent (or empty) keeps telemetry fully off, and anything but
// a whole decimal port in [0, 65535] is an error.
StatusOr<int> ResolveTelemetryPort(int config_port) {
  if (config_port >= 0) return config_port;
  const char* env = std::getenv("FTMS_TELEMETRY_PORT");
  if (env == nullptr || env[0] == '\0') return -1;
  const std::optional<int64_t> port = ParseDecimal(env, 0, 65535);
  if (!port) {
    return Status::InvalidArgument(
        std::string("FTMS_TELEMETRY_PORT must be a port in [0, 65535], "
                    "got '") +
        env + "'");
  }
  return static_cast<int>(*port);
}

}  // namespace

StatusOr<std::unique_ptr<MultimediaServer>> MultimediaServer::Create(
    const ServerConfig& config) {
  FTMS_RETURN_IF_ERROR(config.params.Validate());
  const int c = config.parity_group_size;
  if (c < 2) {
    return Status::InvalidArgument("parity group size must be >= 2");
  }

  auto server = std::unique_ptr<MultimediaServer>(new MultimediaServer());
  server->config_ = config;

  // Layout first: it validates the D/C divisibility constraints.
  StatusOr<std::unique_ptr<Layout>> layout =
      CreateLayout(config.scheme, config.params.num_disks, c);
  if (!layout.ok()) return layout.status();
  server->layout_ = std::move(*layout);

  StatusOr<DiskArray> disks =
      DiskArray::Create(config.params.num_disks,
                        server->layout_->disks_per_cluster(),
                        config.params.disk);
  if (!disks.ok()) return disks.status();
  server->disks_ = std::make_unique<DiskArray>(std::move(*disks));

  server->catalog_ = std::make_unique<Catalog>(
      server->layout_.get(), config.params.disk.TracksPerDisk());

  if (config.admission_override > 0) {
    server->admission_ =
        std::make_unique<AdmissionController>(config.admission_override);
  } else {
    StatusOr<AdmissionController> admission =
        AdmissionController::Create(config.params, config.scheme, c);
    if (!admission.ok()) return admission.status();
    server->admission_ =
        std::make_unique<AdmissionController>(std::move(*admission));
  }

  SchedulerConfig sched_config;
  sched_config.scheme = config.scheme;
  sched_config.parity_group_size = c;
  sched_config.object_rate_mb_s = config.params.object_rate_mb_s;
  sched_config.disk = config.params.disk;
  sched_config.slots_per_disk = config.slots_per_disk;
  sched_config.nc_transition = config.nc_transition;
  sched_config.buffer_servers = config.params.k_reserve;
  sched_config.ib_prefetch_parity = config.ib_prefetch_parity;
  sched_config.journal = config.journal;
  sched_config.ledger = config.ledger;
  sched_config.timeseries = config.timeseries;
  StatusOr<std::unique_ptr<CycleScheduler>> scheduler = CreateScheduler(
      sched_config, server->disks_.get(), server->layout_.get());
  if (!scheduler.ok()) return scheduler.status();
  server->scheduler_ = std::move(*scheduler);

  server->rebuild_ = std::make_unique<RebuildManager>(
      server->disks_.get(), server->layout_.get(),
      server->scheduler_.get());

  // Live telemetry plane, only when asked for: the hub publishes at cycle
  // boundaries (serial points), the HTTP thread serves what it published.
  // With telemetry off neither object exists — zero threads, zero
  // per-cycle cost, byte-identical outputs.
  const StatusOr<int> telemetry_port =
      ResolveTelemetryPort(config.telemetry_port);
  if (!telemetry_port.ok()) return telemetry_port.status();
  if (*telemetry_port >= 0) {
    MultimediaServer* raw = server.get();
    server->telemetry_hub_ = std::make_unique<TelemetryHub>();
    server->telemetry_hub_->AttachMetrics(
        server->scheduler_->metrics_registry());
    server->telemetry_hub_->AttachTimeSeries(
        server->scheduler_->timeseries_recorder());
    server->telemetry_hub_->AttachJournal(server->scheduler_->journal());
    server->telemetry_hub_->AddProbe([raw](TelemetrySnapshot* snap) {
      raw->ProbeTelemetry(snap);
    });
    TelemetryServerOptions options;
    options.port = *telemetry_port;
    StatusOr<std::unique_ptr<TelemetryServer>> http =
        TelemetryServer::Start(server->telemetry_hub_.get(), options);
    if (!http.ok()) return http.status();
    server->telemetry_server_ = std::move(*http);
    server->ForcePublishTelemetry();  // content before cycle 1
  }

  return server;
}

void MultimediaServer::ProbeReadiness(TelemetryReadiness* state) const {
  state->cycle = scheduler_->cycle();
  state->rebuild_active = rebuild_->Active();
  state->rebuild_disk = rebuild_->active_disk();
  state->rebuild_progress = rebuild_->Progress();
  if (const QosLedger* ledger = scheduler_->qos_ledger()) {
    state->active_breaches = ledger->active_breaches();
  }
}

void MultimediaServer::ProbeTelemetry(TelemetrySnapshot* snap) {
  ProbeReadiness(snap);
  snap->status_line = StatusLine();

  const int num_clusters = layout_->num_clusters();
  const int disks_per_cluster = layout_->disks_per_cluster();
  const int slots = scheduler_->slots_per_disk();
  snap->clusters.assign(static_cast<size_t>(num_clusters), {});
  for (int cl = 0; cl < num_clusters; ++cl) {
    TelemetrySnapshot::ClusterStat& stat =
        snap->clusters[static_cast<size_t>(cl)];
    stat.cluster = cl;
    stat.failed_disks = disks_->NumFailedInCluster(cl);
    stat.rebuilding = rebuild_->Active() &&
                      disks_->ClusterOf(rebuild_->active_disk()) == cl;
    if (slots <= 0 || disks_per_cluster <= 0) continue;
    int used = 0;
    for (int d = cl * disks_per_cluster; d < (cl + 1) * disks_per_cluster;
         ++d) {
      used += scheduler_->SlotsUsedLastCycle(d);
    }
    stat.utilization = static_cast<double>(used) /
                       (static_cast<double>(slots) * disks_per_cluster);
  }

  const auto& streams = scheduler_->streams();
  snap->hiccups_total = scheduler_->metrics().hiccups;
  for (const auto& stream : streams) {
    snap->worst_stream_hiccups =
        std::max(snap->worst_stream_hiccups, stream->hiccup_count());
  }
  if (const QosLedger* ledger = scheduler_->qos_ledger()) {
    for (const SloStatus& status : ledger->Evaluate(streams)) {
      snap->slo_burn.emplace_back(status.spec.name, status.budget_burn);
    }
  }
}

void MultimediaServer::PublishTelemetry() {
  if (telemetry_hub_ == nullptr) return;
  TelemetryReadiness state;
  state.sim_us = static_cast<int64_t>(NowSeconds() * 1e6);
  ProbeReadiness(&state);
  telemetry_hub_->PublishCycle(state);
}

void MultimediaServer::ForcePublishTelemetry() {
  if (telemetry_hub_ == nullptr) return;
  telemetry_hub_->Publish(static_cast<int64_t>(NowSeconds() * 1e6));
}

Status MultimediaServer::AddObject(const MediaObject& object) {
  if (!scheduler_->CanServeRate(object.rate_mb_s)) {
    return Status::InvalidArgument(
        "object rate not servable by the configured scheduler (base rate "
        "or, for the Non-clustered scheme, an integer multiple of it)");
  }
  return catalog_->Add(object);
}

Status MultimediaServer::RemoveObject(int object_id) {
  for (const auto& stream : scheduler_->streams()) {
    if (stream->state() == StreamState::kActive &&
        stream->object().id == object_id) {
      return Status::FailedPrecondition(
          "object has active streams; cannot purge");
    }
  }
  return catalog_->Remove(object_id);
}

namespace {

// Base-stream equivalents a stream consumes (its rate multiplier).
int AdmissionWeight(const MediaObject& object, double base_rate_mb_s) {
  return std::max(
      1, static_cast<int>(std::lround(object.rate_mb_s / base_rate_mb_s)));
}

}  // namespace

StatusOr<StreamId> MultimediaServer::StartStream(int object_id) {
  StatusOr<MediaObject> object = catalog_->Get(object_id);
  if (!object.ok()) return object.status();
  const int weight =
      AdmissionWeight(*object, config_.params.object_rate_mb_s);
  FTMS_RETURN_IF_ERROR(admission_->Admit(weight));
  StatusOr<StreamId> id = scheduler_->AddStream(*object);
  if (!id.ok()) {
    admission_->Release(weight);
    return id.status();
  }
  return id;
}

Status MultimediaServer::StopStream(StreamId id) {
  FTMS_RETURN_IF_ERROR(scheduler_->StopStream(id));
  ReleaseFinishedSlots();
  return Status::Ok();
}

void MultimediaServer::ReleaseFinishedSlots() {
  const auto& streams = scheduler_->streams();
  slot_released_.resize(streams.size(), false);
  for (size_t i = 0; i < streams.size(); ++i) {
    if (slot_released_[i]) continue;
    const StreamState state = streams[i]->state();
    if (state == StreamState::kCompleted ||
        state == StreamState::kTerminated) {
      admission_->Release(AdmissionWeight(
          streams[i]->object(), config_.params.object_rate_mb_s));
      slot_released_[i] = true;
    }
  }
}

void MultimediaServer::RunCycles(int n) {
  for (int i = 0; i < n; ++i) {
    scheduler_->RunCycle();
    rebuild_->AdvanceOneCycle();
    ReleaseFinishedSlots();
    // Cycle end is the serial sync point: a body scrape sees the first
    // cycle end after it arrived, never a torn view.
    PublishTelemetry();
  }
}

Status MultimediaServer::FailDisk(int disk, bool mid_cycle) {
  if (disk < 0 || disk >= disks_->num_disks()) {
    return Status::OutOfRange("disk id out of range");
  }
  scheduler_->OnDiskFailed(disk, mid_cycle);
  return Status::Ok();
}

Status MultimediaServer::RepairDisk(int disk) {
  if (disk < 0 || disk >= disks_->num_disks()) {
    return Status::OutOfRange("disk id out of range");
  }
  scheduler_->OnDiskRepaired(disk);
  return Status::Ok();
}

bool MultimediaServer::CatastrophicFailure() const {
  return layout_->LosesGroup(disks_->FailedPerCluster());
}

double MultimediaServer::NowSeconds() const {
  return static_cast<double>(scheduler_->cycle()) *
         scheduler_->CycleSeconds();
}

std::string MultimediaServer::Summary() const {
  const SchedulerMetrics& m = scheduler_->metrics();
  std::ostringstream os;
  os << SchemeName(config_.scheme) << " C=" << config_.parity_group_size
     << " D=" << config_.params.num_disks << ": cycle " << scheduler_->cycle()
     << ", active " << scheduler_->ActiveStreams() << "/"
     << admission_->capacity() << ", delivered " << m.tracks_delivered
     << ", hiccups " << m.hiccups << ", reconstructed " << m.reconstructed
     << ", failed disks " << disks_->NumFailed();
  return os.str();
}

std::string MultimediaServer::StatusLine() const {
  const QosLedger* ledger = scheduler_->qos_ledger();
  int64_t worst = 0;
  for (const auto& stream : scheduler_->streams()) {
    worst = std::max(worst, stream->hiccup_count());
  }
  int64_t breaches;
  if (ledger != nullptr) {
    breaches = ledger->active_breaches();
  } else {
    // No ledger ran: evaluate the scheme's default SLOs against the
    // current stream table (degraded exposure unknown, failures scaled
    // by the disks currently down).
    breaches = CountBreaches(EvaluateSlos(
        CaptureStreamQos(scheduler_->streams()),
        DefaultSlos(config_.scheme, config_.parity_group_size),
        disks_->NumFailed()));
  }
  std::ostringstream os;
  os << Summary() << ", worst-stream hiccups " << worst
     << ", slo breaches " << breaches;
  return os.str();
}

}  // namespace ftms
