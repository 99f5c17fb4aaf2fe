#include "telemetry/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "qos/event_journal.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/parse.h"
#include "util/profiler.h"
#include "util/timeseries.h"

namespace ftms {

namespace {

// The /vars document: run state first, then the flat registry block —
// one self-contained JSON object per scrape for dashboards and `ftms top`.
std::string RenderVarsJson(const TelemetrySnapshot& snap,
                           const MetricsRegistry* metrics) {
  std::string out = "{\n  \"schema\": \"ftms.telemetry.vars.v1\",\n";
  out += "  \"seq\": " + std::to_string(snap.seq) + ",\n";
  out += "  \"sim_us\": " + std::to_string(snap.sim_us) + ",\n";
  out += "  \"cycle\": " + std::to_string(snap.cycle) + ",\n";
  out += std::string("  \"ready\": ") + (snap.ready() ? "true" : "false") +
         ",\n";
  out += "  \"status_line\": ";
  AppendJsonString(&out, snap.status_line);
  out += ",\n  \"rebuild\": {\"active\": ";
  out += snap.rebuild_active ? "true" : "false";
  out += ", \"disk\": " + std::to_string(snap.rebuild_disk);
  out += ", \"progress\": ";
  AppendJsonNumber(&out, snap.rebuild_progress, 6);
  out += "},\n  \"clusters\": [";
  for (size_t i = 0; i < snap.clusters.size(); ++i) {
    const auto& c = snap.clusters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"cluster\": " + std::to_string(c.cluster);
    out += ", \"util\": ";
    AppendJsonNumber(&out, c.utilization, 6);
    out += ", \"failed\": " + std::to_string(c.failed_disks);
    out += std::string(", \"rebuilding\": ") +
           (c.rebuilding ? "true" : "false") + "}";
  }
  out += snap.clusters.empty() ? "]" : "\n  ]";
  out += ",\n  \"slo_burn\": {";
  for (size_t i = 0; i < snap.slo_burn.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    ";
    AppendJsonString(&out, snap.slo_burn[i].first);
    out += ": ";
    AppendJsonNumber(&out, snap.slo_burn[i].second, 6);
  }
  out += snap.slo_burn.empty() ? "}" : "\n  }";
  out += ",\n  \"qos\": {\"active_breaches\": " +
         std::to_string(snap.active_breaches);
  out += ", \"hiccups_total\": " + std::to_string(snap.hiccups_total);
  out += ", \"worst_stream_hiccups\": " +
         std::to_string(snap.worst_stream_hiccups);
  out += ", \"journal_events\": " + std::to_string(snap.journal_total);
  out += ", \"journal_dropped\": " + std::to_string(snap.journal_dropped);
  out += "}";
  if (metrics != nullptr) {
    out += ",\n  \"metrics\": ";
    out += metrics->JsonObject("    ", "  ");
  }
  out += "\n}\n";
  return out;
}

}  // namespace

void TelemetryHub::Publish(int64_t sim_us) {
  TelemetryReadiness state;
  state.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  state.sim_us = sim_us;
  Render(state);
}

void TelemetryHub::PublishCycle(const TelemetryReadiness& state) {
  TelemetryReadiness next = state;
  next.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool render;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    render = render_requested_;
    if (!render) readiness_ = next;
  }
  if (render) Render(next);
  // A cycle loop never blocks, so without this the exporter thread (woken
  // by a render above) or a scraper queued on this CPU could wait for the
  // scheduler's next tick, milliseconds away; yielding bounds that wait
  // to one cycle and costs one system call when nothing else is runnable.
  std::this_thread::yield();
}

void TelemetryHub::Render(TelemetryReadiness state) {
  auto snap = std::make_shared<TelemetrySnapshot>();
  static_cast<TelemetryReadiness&>(*snap) = state;
  for (const StateProbe& probe : probes_) probe(snap.get());
  if (metrics_ != nullptr) {
    snap->metrics_prom = metrics_->PrometheusText();
  }
  if (timeseries_ != nullptr) {
    snap->timeseries_json = timeseries_->ToJson();
  }
  if (Profiler::GlobalEnabled()) {
    snap->profile_json = Profiler::SnapshotJson();
  }
  if (journal_ != nullptr) {
    snap->journal_tail = journal_->TailLines(
        kJournalTailMax, &snap->journal_total, &snap->journal_dropped);
  }
  snap->vars_json = RenderVarsJson(*snap, metrics_);
  renders_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    readiness_ = *snap;
    latest_ = std::move(snap);
    render_requested_ = false;  // this render answers every waiter
  }
  rendered_.notify_all();
}

std::shared_ptr<const TelemetrySnapshot> TelemetryHub::Latest() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

TelemetryReadiness TelemetryHub::Readiness() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return readiness_;
}

std::shared_ptr<const TelemetrySnapshot> TelemetryHub::AwaitRendered(
    const std::atomic<bool>& serving) const {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t asked_at = readiness_.seq;
  if (latest_->seq == asked_at || wait_expired_at_ == asked_at) {
    return latest_;
  }
  render_requested_ = true;
  const bool woken = rendered_.wait_for(lock, kRenderWait, [&] {
    return latest_->seq > asked_at ||
           !serving.load(std::memory_order_acquire);
  });
  if (!woken) wait_expired_at_ = readiness_.seq;
  return latest_;
}

void TelemetryHub::WakeWaiters() const {
  // Taking the lock orders the caller's flag store before a waiter's
  // predicate check, so the notification cannot fall between the two.
  { const std::lock_guard<std::mutex> lock(mu_); }
  rendered_.notify_all();
}

StatusOr<std::unique_ptr<TelemetryServer>> TelemetryServer::Start(
    const TelemetryHub* hub, const TelemetryServerOptions& options) {
  if (hub == nullptr) {
    return Status::InvalidArgument("telemetry server needs a hub");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("telemetry: port " +
                                   std::to_string(options.port) +
                                   " outside [0, 65535]");
  }
  auto server = std::unique_ptr<TelemetryServer>(new TelemetryServer());
  server->hub_ = hub;
  server->bind_address_ = options.bind_address;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("telemetry: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("telemetry: bad bind address " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("telemetry: bind to " +
                               options.bind_address + ":" +
                               std::to_string(options.port) +
                               " failed: " + err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("telemetry: listen failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->running_.store(true, std::memory_order_release);
  server->thread_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Wake a request waiting for a render and the blocked accept(); the fd
  // is closed only after the join so it cannot be reused by another
  // thread in between.
  hub_->WakeWaiters();
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

std::string TelemetryServer::url() const {
  return "http://" + bind_address_ + ":" + std::to_string(port_);
}

void TelemetryServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // shutdown() from Stop() lands here; any other error also ends
      // the serving thread rather than spinning.
      break;
    }
    ServeOne(client);
    ::close(client);
  }
}

void TelemetryServer::ServeOne(int client_fd) {
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  std::string head;
  char buf[2048];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < 16384) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }
  if (head.empty()) return;

  HttpResponse response;
  StatusOr<HttpRequest> request = ParseHttpRequestHead(head);
  if (!request.ok()) {
    response.status = 400;
    response.body = request.status().ToString() + "\n";
  } else {
    response = Handle(*request);
  }
  const std::string wire = SerializeHttpResponse(response);
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(client_fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

HttpResponse TelemetryServer::Handle(const HttpRequest& request) const {
  HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response.status = 405;
    response.body = "method not allowed\n";
    return response;
  }
  const auto rendered = [this] { return hub_->AwaitRendered(running_); };

  if (request.path == "/metrics") {
    response.content_type = kPrometheusContentType;
    response.body = rendered()->metrics_prom;
  } else if (request.path == "/healthz") {
    // Liveness: the accept loop answered, so the process is healthy.
    response.body = "ok\n";
  } else if (request.path == "/readyz") {
    // Readiness degrades while a rebuild is in flight (the paper's
    // critical exposure window) or an SLO breach is active.
    const TelemetryReadiness state = hub_->Readiness();
    if (state.ready()) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready: ";
      if (state.rebuild_active) response.body += "rebuild in flight; ";
      if (state.active_breaches > 0) {
        response.body +=
            std::to_string(state.active_breaches) + " active breach(es); ";
      }
      response.body += "\n";
    }
  } else if (request.path == "/vars") {
    response.content_type = "application/json";
    response.body = rendered()->vars_json;
  } else if (request.path == "/timeseries") {
    const std::shared_ptr<const TelemetrySnapshot> snap = rendered();
    response.content_type = "application/json";
    response.body = snap->timeseries_json.empty() ? "{}\n"
                                                  : snap->timeseries_json;
  } else if (request.path == "/profile") {
    const std::shared_ptr<const TelemetrySnapshot> snap = rendered();
    response.content_type = "application/json";
    response.body =
        snap->profile_json.empty() ? "{}\n" : snap->profile_json;
  } else if (request.path == "/journal/tail") {
    size_t n = 32;
    if (const auto param = QueryParam(request, "n")) {
      const std::optional<int64_t> v =
          ParseDecimal(*param, 0, std::numeric_limits<int64_t>::max());
      if (!v) {
        response.status = 400;
        response.body = "bad n: expected a non-negative integer\n";
        return response;
      }
      n = static_cast<size_t>(*v);
    }
    const std::shared_ptr<const TelemetrySnapshot> snap = rendered();
    const size_t have = snap->journal_tail.size();
    const size_t count = n < have ? n : have;
    response.content_type = "application/x-ndjson";
    for (size_t i = have - count; i < have; ++i) {
      response.body += snap->journal_tail[i];
      response.body += '\n';
    }
  } else {
    response.status = 404;
    response.body = "not found: " + request.path + "\n";
  }
  if (request.method == "HEAD") response.body.clear();
  return response;
}

}  // namespace ftms
