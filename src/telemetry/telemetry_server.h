#ifndef FTMS_TELEMETRY_TELEMETRY_SERVER_H_
#define FTMS_TELEMETRY_TELEMETRY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/http.h"
#include "util/status.h"

namespace ftms {

class EventJournal;
class MetricsRegistry;
class TimeSeriesRecorder;

// Content type of the /metrics endpoint (Prometheus text exposition 0.0.4).
inline constexpr char kPrometheusContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

// What every cycle end publishes: the inputs of /healthz and /readyz.
// A fixed handful of words, so a publication formats no string and costs
// the same at any stream, cluster or series count.
struct TelemetryReadiness {
  uint64_t seq = 0;      // monotonically increasing publication number
  int64_t sim_us = 0;    // simulated clock at publication
  int64_t cycle = -1;
  bool rebuild_active = false;
  double rebuild_progress = 0.0;  // [0, 1], meaningful while active
  int rebuild_disk = -1;
  int64_t active_breaches = 0;

  bool ready() const { return !rebuild_active && active_breaches == 0; }
};

// One immutable, sequence-numbered view of the whole observability
// surface, rendered on the driving thread at a cycle end that a scrape
// asked for, or at a forced publication. Scrape handlers only ever read a
// snapshot they hold a shared_ptr to, so a scrape can never observe a
// half-written cycle and never blocks the simulation.
struct TelemetrySnapshot : TelemetryReadiness {
  std::string status_line;  // MultimediaServer::StatusLine() when attached

  // Per-cluster state computed by the server probe (utilization = mean
  // fraction of read slots consumed in the last cycle across the
  // cluster's disks).
  struct ClusterStat {
    int cluster = 0;
    double utilization = 0.0;
    int failed_disks = 0;
    bool rebuilding = false;
  };
  std::vector<ClusterStat> clusters;

  // Live per-SLO error-budget burn (>= 1 means breached).
  std::vector<std::pair<std::string, double>> slo_burn;
  int64_t hiccups_total = 0;
  int64_t worst_stream_hiccups = 0;

  // Rendered endpoint bodies; the accept thread serves them verbatim.
  std::string metrics_prom;     // /metrics
  std::string vars_json;        // /vars
  std::string timeseries_json;  // /timeseries
  std::string profile_json;     // /profile

  // Last kJournalTailMax journal lines (JSONL, no trailing newline each).
  std::vector<std::string> journal_tail;
  int64_t journal_total = 0;    // events currently retained
  int64_t journal_dropped = 0;  // events evicted by the ring cap
};

// Collects the observability sources and publishes immutable snapshots.
//
// Threading contract (DESIGN.md §14): both publications run only at
// serial points on the driving thread — MultimediaServer cycle ends and
// its forced publications — so reading the registry / journal / recorder
// while rendering races with nothing. The per-cycle PublishCycle()
// installs only readiness; bodies render there only when a scrape asked
// (AwaitRendered) since the last render, and always in Publish(). One
// mutex guards the readiness words, the snapshot pointer and the request
// flag: readers copy the shared_ptr inside the lock and serve every byte
// outside it (a plain mutex rather than std::atomic<shared_ptr> because
// libstdc++'s lock-bit protocol for the latter is opaque to TSan).
// Rendering — the expensive part — happens before the lock, and the
// scrape path never touches live simulation state.
class TelemetryHub {
 public:
  static constexpr size_t kJournalTailMax = 256;
  // How long a body request waits for the driving thread to render: far
  // below the 5 s socket timeouts of HttpGet and the exporter.
  static constexpr std::chrono::milliseconds kRenderWait{500};

  // Fills snapshot fields from live component state; runs on the
  // publishing thread, inside the serial section, at every render.
  using StateProbe = std::function<void(TelemetrySnapshot*)>;

  TelemetryHub() = default;
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  // All attachments must happen before the first Publish() that should
  // see them and before a TelemetryServer starts serving. Null detaches.
  void AttachMetrics(const MetricsRegistry* metrics) { metrics_ = metrics; }
  void AttachTimeSeries(const TimeSeriesRecorder* ts) { timeseries_ = ts; }
  void AttachJournal(const EventJournal* journal) { journal_ = journal; }
  void AddProbe(StateProbe probe) { probes_.push_back(std::move(probe)); }

  // The forced publication: runs the probes and renders every body now.
  // Serial sync points only.
  void Publish(int64_t sim_us);

  // The per-cycle publication: installs `state` (its seq is assigned
  // here) as the newest readiness, and renders as Publish() does only
  // when a body request asked for a render since the last one. Serial
  // sync points only.
  void PublishCycle(const TelemetryReadiness& state);

  // Newest rendered snapshot (never null: an empty seq-0 snapshot is
  // served before the first render). Any thread.
  std::shared_ptr<const TelemetrySnapshot> Latest() const;

  // Newest publication's readiness, rendered or not. Any thread.
  TelemetryReadiness Readiness() const;

  // For a body request: the newest rendered snapshot, at once when the
  // newest publication rendered. Otherwise asks the next PublishCycle()
  // to render and waits up to kRenderWait for it; returns early once
  // `serving` is false. After a wait expires, later requests take the
  // newest rendered snapshot without waiting until something new is
  // published. Any thread.
  std::shared_ptr<const TelemetrySnapshot> AwaitRendered(
      const std::atomic<bool>& serving) const;

  // Wakes every AwaitRendered() caller to re-check its `serving` flag.
  void WakeWaiters() const;

  uint64_t publish_count() const {
    return seq_.load(std::memory_order_relaxed);
  }
  // Publications that rendered bodies: forced ones plus the cycle ends a
  // scrape asked for.
  uint64_t render_count() const {
    return renders_.load(std::memory_order_relaxed);
  }

 private:
  void Render(TelemetryReadiness state);

  const MetricsRegistry* metrics_ = nullptr;
  const TimeSeriesRecorder* timeseries_ = nullptr;
  const EventJournal* journal_ = nullptr;
  std::vector<StateProbe> probes_;

  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> renders_{0};
  // mu_ guards the members below; snapshot contents are immutable.
  mutable std::mutex mu_;
  mutable std::condition_variable rendered_;
  TelemetryReadiness readiness_;
  std::shared_ptr<const TelemetrySnapshot> latest_ =
      std::make_shared<const TelemetrySnapshot>();
  mutable bool render_requested_ = false;
  mutable uint64_t wait_expired_at_ = 0;  // readiness_.seq when one expired
};

struct TelemetryServerOptions {
  int port = 0;  // [0, 65535]; 0 = kernel-assigned ephemeral port
  std::string bind_address = "127.0.0.1";
};

// The scrape endpoint: a blocking accept loop on its own thread serving
// GET /metrics, /healthz, /readyz, /vars, /timeseries, /profile and
// /journal/tail?n=K: /healthz and /readyz from the hub's newest
// readiness, every other body from its newest rendered snapshot (see
// TelemetryHub::AwaitRendered). Constructed only when telemetry is
// enabled — a server that is never created costs nothing (no thread, no
// socket, no atomics on the hot path).
class TelemetryServer {
 public:
  // Binds, starts listening and spawns the accept thread. The hub must
  // outlive the server. InvalidArgument for a port outside [0, 65535].
  static StatusOr<std::unique_ptr<TelemetryServer>> Start(
      const TelemetryHub* hub, const TelemetryServerOptions& options = {});

  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  // Stops accepting, wakes a request waiting for a render, closes the
  // socket and joins the thread. Idempotent.
  void Stop();

  int port() const { return port_; }
  std::string url() const;
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Routing logic, exposed so tests can drive it without sockets.
  HttpResponse Handle(const HttpRequest& request) const;

 private:
  TelemetryServer() = default;
  void AcceptLoop();
  void ServeOne(int client_fd);

  const TelemetryHub* hub_ = nullptr;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string bind_address_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> requests_served_{0};
  std::thread thread_;
};

}  // namespace ftms

#endif  // FTMS_TELEMETRY_TELEMETRY_SERVER_H_
