#ifndef FTMS_SERVER_SERVER_H_
#define FTMS_SERVER_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "disk/disk_array.h"
#include "layout/catalog.h"
#include "layout/layout.h"
#include "model/parameters.h"
#include "sched/cycle_scheduler.h"
#include "server/rebuild_manager.h"
#include "stream/admission.h"
#include "telemetry/telemetry_server.h"
#include "util/status.h"

namespace ftms {

// Top-level configuration of a multimedia server instance.
struct ServerConfig {
  Scheme scheme = Scheme::kStreamingRaid;
  SystemParameters params;            // disks, rates, D, K (Table 1)
  int parity_group_size = 5;          // C
  NcTransition nc_transition = NcTransition::kDeferredRead;
  bool ib_prefetch_parity = false;
  int slots_per_disk = 0;             // 0 = derive from the disk model

  // When > 0, overrides the analytical admission capacity (used by
  // stress experiments that deliberately overload the disks).
  int admission_override = 0;

  // QoS sinks forwarded to the scheduler (see SchedulerConfig::journal /
  // ::ledger): null keeps the FTMS_QOS-gated defaults; examples and the
  // CLI inject private instances.
  EventJournal* journal = nullptr;
  QosLedger* ledger = nullptr;

  // Time-series recorder forwarded to the scheduler (see
  // SchedulerConfig::timeseries): null keeps the FTMS_TIMESERIES-gated
  // global recorder.
  TimeSeriesRecorder* timeseries = nullptr;

  // Telemetry exporter port: 0..65535 starts the in-process HTTP server
  // on 127.0.0.1 (0 = kernel-assigned ephemeral port); -1 falls back to
  // the FTMS_TELEMETRY_PORT environment variable, and disables telemetry
  // entirely when that is unset or empty — no thread, no socket, no
  // per-cycle snapshot work. Create() fails with InvalidArgument on a
  // port above 65535 or a variable that is not a whole decimal port.
  int telemetry_port = -1;
};

// The multimedia on-demand server of Figure 1, disk subsystem side:
// a disk farm with a parity layout, a cycle-based scheduler for one of
// the paper's four schemes, a catalog of disk-resident objects, and
// admission control from the analytical capacity model.
//
// Usage:
//   auto server = MultimediaServer::Create(config).value();
//   server->AddObject(MakeMovie(...));
//   StreamId id = server->StartStream(object_id).value();
//   server->RunCycles(100);
//   server->FailDisk(7, /*mid_cycle=*/false);
//   server->RunCycles(100);
//   -> inspect server->scheduler().metrics(), per-stream hiccups, etc.
class MultimediaServer {
 public:
  static StatusOr<std::unique_ptr<MultimediaServer>> Create(
      const ServerConfig& config);

  MultimediaServer(const MultimediaServer&) = delete;
  MultimediaServer& operator=(const MultimediaServer&) = delete;

  // Stages an object onto the disk working set.
  Status AddObject(const MediaObject& object);

  // Purges an object (it must have no active streams).
  Status RemoveObject(int object_id);

  // Admits and starts a stream on a resident object.
  StatusOr<StreamId> StartStream(int object_id);

  // VCR controls. A paused stream keeps its admission slot (its
  // bandwidth stays reserved, so resuming is glitch-free); stopping
  // frees the slot and the stream's buffers.
  Status PauseStream(StreamId id) {
    return scheduler_->PauseStream(id);
  }
  Status ResumeStream(StreamId id) {
    return scheduler_->ResumeStream(id);
  }
  Status StopStream(StreamId id);

  // Advances simulated time by `n` scheduling cycles.
  void RunCycles(int n);

  // Failure injection; `mid_cycle` models a failure inside the upcoming
  // cycle's disk sweep.
  Status FailDisk(int disk, bool mid_cycle = false);
  Status RepairDisk(int disk);

  // Begins rebuilding a failed disk onto a hot spare using idle
  // bandwidth only (rebuild mode; progresses as cycles run and repairs
  // the disk on completion).
  Status StartRebuild(int disk) { return rebuild_->StartRebuild(disk); }
  const RebuildManager& rebuild() const { return *rebuild_; }
  // Mutable access for byte-level rebuild attachment
  // (RebuildManager::AttachDataPath) and rebuild drills.
  RebuildManager& mutable_rebuild() { return *rebuild_; }

  // True when some parity group has lost two members: data must be
  // reloaded from tertiary storage (Section 1's catastrophic failure).
  bool CatastrophicFailure() const;

  const ServerConfig& config() const { return config_; }
  const DiskArray& disks() const { return *disks_; }
  const Layout& layout() const { return *layout_; }
  const Catalog& catalog() const { return *catalog_; }
  // Mutable access for external staging managers (Figure 1's tertiary
  // pipeline); object lifetimes are still guarded by RemoveObject checks
  // when purging through the server API.
  Catalog& mutable_catalog() { return *catalog_; }
  const AdmissionController& admission() const { return *admission_; }
  CycleScheduler& scheduler() { return *scheduler_; }
  const CycleScheduler& scheduler() const { return *scheduler_; }

  double NowSeconds() const;
  int64_t cycle() const { return scheduler_->cycle(); }

  // One-line status summary (streams, hiccups, failures).
  std::string Summary() const;

  // Summary() extended with per-viewer QoS: the worst single stream's
  // hiccup count and the number of currently breached SLOs (from the
  // scheduler's ledger when one is attached, else evaluated on the fly
  // against the scheme's DefaultSlos).
  std::string StatusLine() const;

  // Live telemetry plane (null unless ServerConfig::telemetry_port or
  // FTMS_TELEMETRY_PORT enabled it at Create time).
  const TelemetryServer* telemetry_server() const {
    return telemetry_server_.get();
  }
  TelemetryHub* telemetry_hub() { return telemetry_hub_.get(); }

  // Exactly what every cycle end does: publishes the readiness words
  // (cycle, rebuild window, active breaches) that /healthz and /readyz
  // serve, and renders the status line, cluster and SLO state and every
  // body only when a scrape is waiting for them. Serial points only.
  void PublishTelemetry();

  // Publishes and renders every body now. Create() calls it so the
  // endpoints have content before cycle 1; exporters call it right
  // before their final dump so the last scrape equals the written file.
  void ForcePublishTelemetry();

 private:
  MultimediaServer() = default;

  // Returns completed/terminated streams' admission slots to the pool.
  void ReleaseFinishedSlots();

  // Fills the readiness words of a telemetry publication. Constant time:
  // it walks no stream, cluster or series. Serial points only.
  void ProbeReadiness(TelemetryReadiness* state) const;

  // Fills every field of a rendered snapshot: readiness plus the status
  // line, per-cluster utilization and SLO burn. Serial points only.
  void ProbeTelemetry(TelemetrySnapshot* snap);

  std::vector<bool> slot_released_;  // per StreamId
  ServerConfig config_;
  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<Layout> layout_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<CycleScheduler> scheduler_;
  std::unique_ptr<RebuildManager> rebuild_;
  std::unique_ptr<TelemetryHub> telemetry_hub_;
  std::unique_ptr<TelemetryServer> telemetry_server_;
};

}  // namespace ftms

#endif  // FTMS_SERVER_SERVER_H_
