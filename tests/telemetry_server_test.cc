// Telemetry plane tests: hub snapshot publication, the HTTP exporter's
// endpoint contract (socketless via Handle() and over real sockets), and
// concurrent scrapes against a live failure + rebuild drill. The socket
// tests bind port 0 on 127.0.0.1 only. Runs under the perf_smoke label so
// the TSan CI job exercises the scrape/publish race surface.
#include "telemetry/telemetry_server.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qos/event_journal.h"
#include "server/server.h"
#include "telemetry/http.h"
#include "util/json.h"
#include "util/metrics.h"

namespace ftms {
namespace {

HttpRequest Get(const std::string& target) {
  return ParseHttpRequestHead("GET " + target + " HTTP/1.1\r\n\r\n").value();
}

// A hub with one published snapshot carrying controllable state.
struct HubRig {
  TelemetryHub hub;
  MetricsRegistry metrics;
  EventJournal journal{/*max_events=*/0};
  bool rebuild_active = false;
  int64_t breaches = 0;

  HubRig() {
    metrics.GetCounter("ftms_test_total", "A counter for the test")->Add(7);
    hub.AttachMetrics(&metrics);
    hub.AttachJournal(&journal);
    hub.AddProbe([this](TelemetrySnapshot* snap) {
      snap->rebuild_active = rebuild_active;
      snap->active_breaches = breaches;
    });
  }

  std::unique_ptr<TelemetryServer> Serve() {
    auto server = std::move(
        TelemetryServer::Start(&hub, TelemetryServerOptions()).value());
    return server;
  }
};

TEST(TelemetryHubTest, PublishBumpsSequenceAndSwapsSnapshot) {
  HubRig rig;
  EXPECT_EQ(rig.hub.Latest()->seq, 0u);  // pre-publish empty snapshot
  rig.hub.Publish(1000);
  const auto first = rig.hub.Latest();
  EXPECT_EQ(first->seq, 1u);
  EXPECT_EQ(first->sim_us, 1000);
  EXPECT_NE(first->metrics_prom.find("ftms_test_total 7"),
            std::string::npos);
  rig.hub.Publish(2000);
  const auto second = rig.hub.Latest();
  EXPECT_EQ(second->seq, 2u);
  // The first snapshot is immutable; readers holding it see old state.
  EXPECT_EQ(first->sim_us, 1000);
}

TEST(TelemetryHubTest, ReadinessTracksRebuildAndBreaches) {
  HubRig rig;
  rig.hub.Publish(0);
  EXPECT_TRUE(rig.hub.Latest()->ready());
  rig.rebuild_active = true;
  rig.hub.Publish(0);
  EXPECT_FALSE(rig.hub.Latest()->ready());
  rig.rebuild_active = false;
  rig.breaches = 2;
  rig.hub.Publish(0);
  EXPECT_FALSE(rig.hub.Latest()->ready());
  rig.breaches = 0;
  rig.hub.Publish(0);
  EXPECT_TRUE(rig.hub.Latest()->ready());
}

TEST(HttpUrlTest, ParsesHostPortAndTarget) {
  const ParsedUrl url = ParseHttpUrl("http://127.0.0.1:65535/vars?x=1").value();
  EXPECT_EQ(url.host, "127.0.0.1");
  EXPECT_EQ(url.port, 65535);
  EXPECT_EQ(url.target, "/vars?x=1");
  EXPECT_EQ(ParseHttpUrl("http://localhost:1").value().port, 1);
  EXPECT_EQ(ParseHttpUrl("http://localhost").value().port, 80);
  EXPECT_EQ(ParseHttpUrl("http://localhost").value().target, "/");
}

TEST(HttpUrlTest, RejectsPortsThatAreNotWholeNumbersInRange) {
  // 4294967377 is 2^32 + 81: a parse that wraps reads it as port 81.
  for (const char* url :
       {"http://127.0.0.1:4294967377/metrics", "http://127.0.0.1:80x/",
        "http://127.0.0.1:/metrics", "http://127.0.0.1:", "http://h:0/",
        "http://h:65536/", "http://h:-80/", "http://h:+80/", "http://h: 80/",
        "http://:80/"}) {
    const StatusOr<ParsedUrl> parsed = ParseHttpUrl(url);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << url << " parsed as port " << (parsed.ok() ? parsed->port : 0);
  }
}

TEST(HttpResponseTest, ParsesStatusContentTypeAndBody) {
  const HttpResponse response =
      ParseHttpResponse(
          "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain"
          "\r\nContent-Length: 4\r\n\r\nbusy")
          .value();
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.content_type, "text/plain");
  EXPECT_EQ(response.body, "busy");
  EXPECT_EQ(ParseHttpResponse("HTTP/1.1 200\r\n\r\n").value().status, 200);
}

TEST(HttpResponseTest, RejectsStatusCodesThatAreNotThreeDigitsInRange) {
  for (const char* raw :
       {"HTTP/1.1 4294967496 OK\r\n\r\n", "HTTP/1.1 20x OK\r\n\r\n",
        "HTTP/1.1 2000 OK\r\n\r\n", "HTTP/1.1 99 OK\r\n\r\n",
        "HTTP/1.1 600 OK\r\n\r\n", "HTTP/1.1 -20 OK\r\n\r\n",
        "HTTP/1.1  200 OK\r\n\r\n", "HTTP/1.1\r\n\r\n",
        "HTTP/1.1 200 OK\r\n", "HTTX/1.1 200 OK\r\n\r\n"}) {
    EXPECT_EQ(ParseHttpResponse(raw).status().code(),
              StatusCode::kInvalidArgument)
        << raw;
  }
}

TEST(TelemetryServerTest, HandleRoutesEndpointsSocketlessly) {
  HubRig rig;
  rig.hub.Publish(5000000);
  auto server = rig.Serve();

  HttpResponse metrics = server->Handle(Get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, kPrometheusContentType);
  EXPECT_NE(metrics.body.find("# HELP ftms_test_total"), std::string::npos);

  EXPECT_EQ(server->Handle(Get("/healthz")).body, "ok\n");
  EXPECT_EQ(server->Handle(Get("/readyz")).status, 200);
  EXPECT_EQ(server->Handle(Get("/vars")).content_type, "application/json");
  EXPECT_EQ(server->Handle(Get("/nope")).status, 404);

  HttpRequest post = Get("/metrics");
  post.method = "POST";
  EXPECT_EQ(server->Handle(post).status, 405);

  HttpRequest head = Get("/metrics");
  head.method = "HEAD";
  const HttpResponse head_response = server->Handle(head);
  EXPECT_EQ(head_response.status, 200);
  EXPECT_TRUE(head_response.body.empty());
}

TEST(TelemetryServerTest, ReadyzReports503WithReasons) {
  HubRig rig;
  rig.rebuild_active = true;
  rig.breaches = 1;
  rig.hub.Publish(0);
  auto server = rig.Serve();
  const HttpResponse response = server->Handle(Get("/readyz"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("rebuild in flight"), std::string::npos);
  EXPECT_NE(response.body.find("1 active breach"), std::string::npos);
}

TEST(TelemetryServerTest, JournalTailBoundsAndValidation) {
  HubRig rig;
  for (int i = 0; i < 5; ++i) {
    QosEvent e;
    e.kind = QosEventKind::kHiccups;
    e.scheme = "SR";
    e.cycle = i;
    rig.journal.Append(e);
  }
  rig.hub.Publish(0);
  auto server = rig.Serve();

  // Default tail, bounded tail, over-ask, zero, and malformed n.
  HttpResponse all = server->Handle(Get("/journal/tail"));
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.content_type, "application/x-ndjson");
  HttpResponse two = server->Handle(Get("/journal/tail?n=2"));
  int lines = 0;
  for (const char c : two.body) lines += c == '\n';
  EXPECT_EQ(lines, 2);
  // The tail is the NEWEST two events.
  EXPECT_NE(two.body.find("\"cycle\":3"), std::string::npos);
  EXPECT_NE(two.body.find("\"cycle\":4"), std::string::npos);
  EXPECT_EQ(server->Handle(Get("/journal/tail?n=100")).body, all.body);
  EXPECT_TRUE(server->Handle(Get("/journal/tail?n=0")).body.empty());
  EXPECT_EQ(server->Handle(Get("/journal/tail?n=-1")).status, 400);
  EXPECT_EQ(server->Handle(Get("/journal/tail?n=bogus")).status, 400);
}

TEST(TelemetryServerTest, BindsEphemeralPortAndServesOverSocket) {
  HubRig rig;
  rig.hub.Publish(0);
  auto server = rig.Serve();
  ASSERT_GT(server->port(), 0);

  const auto health = HttpGet(server->url() + "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  const auto missing = HttpGet(server->url() + "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_GE(server->requests_served(), 2u);
}

TEST(TelemetryServerTest, StopIsIdempotentAndJoinsTheThread) {
  HubRig rig;
  rig.hub.Publish(0);
  auto server = rig.Serve();
  const std::string url = server->url();
  server->Stop();
  server->Stop();  // second call is a no-op
  EXPECT_FALSE(HttpGet(url + "/healthz", /*timeout_ms=*/500).ok());
  // Destruction after an explicit Stop is clean too (covered by scope).
}

TEST(TelemetryServerTest, ConcurrentScrapesDuringRunningDrill) {
  // The acceptance scenario: an SR failure + rebuild drill runs while
  // scraper threads hammer every endpoint. Publication happens at cycle
  // boundaries on the drill thread; scrapes must always see a complete
  // snapshot (TSan-clean under the perf_smoke CI job).
  ServerConfig config;
  config.scheme = Scheme::kStreamingRaid;
  config.parity_group_size = 5;
  config.params.num_disks = 10;
  config.params.k_reserve = 2;
  config.params.disk.capacity_mb = 2.5;  // tiny disks: fast rebuild
  config.slots_per_disk = 4;
  config.telemetry_port = 0;
  auto server = std::move(MultimediaServer::Create(config).value());
  ASSERT_NE(server->telemetry_server(), nullptr);
  const std::string url = server->telemetry_server()->url();

  MediaObject movie;
  movie.id = 0;
  movie.rate_mb_s = 0.1875;
  movie.num_tracks = 200;
  ASSERT_TRUE(server->AddObject(movie).ok());
  for (int i = 0; i < 3; ++i) server->StartStream(0).value();

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (const char* endpoint : {"/metrics", "/vars", "/readyz",
                               "/journal/tail?n=8"}) {
    scrapers.emplace_back([&, endpoint] {
      while (!done.load(std::memory_order_acquire)) {
        const auto response = HttpGet(url + endpoint);
        if (!response.ok()) {
          failures.fetch_add(1);
        } else {
          scrapes.fetch_add(1);
        }
      }
    });
  }

  server->RunCycles(3);
  ASSERT_TRUE(server->FailDisk(1).ok());
  ASSERT_TRUE(server->StartRebuild(1).ok());
  int guard = 0;
  while (server->rebuild().Active() && ++guard < 200) {
    server->RunCycles(1);
  }
  EXPECT_FALSE(server->rebuild().Active());
  // The drill outruns the scrapers by orders of magnitude; keep the
  // publisher cycling until every endpoint has been scraped a few times
  // so the test actually overlaps scrapes with publications. A wall-clock
  // deadline bounds the wait: how many cycles that takes depends on how
  // cheap a cycle is and on when the scraper threads first get a CPU.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrapes.load() < 12 && std::chrono::steady_clock::now() < deadline) {
    server->RunCycles(1);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();

  EXPECT_GE(scrapes.load(), 12);
  EXPECT_EQ(failures.load(), 0);
  // The last published snapshot reflects the drill's end state.
  const auto final_scrape = HttpGet(url + "/readyz");
  ASSERT_TRUE(final_scrape.ok());
  EXPECT_EQ(final_scrape->status, 200);
}

TEST(TelemetryServerTest, TopOnceJsonRoundTripsAgainstLiveDrill) {
  // `ftms top <url> --once --json` must emit exactly the /vars document.
  // Needs the CLI binary; the ctest wiring passes it via FTMS_CLI_BIN.
  const char* cli = std::getenv("FTMS_CLI_BIN");
  if (cli == nullptr || cli[0] == '\0') {
    GTEST_SKIP() << "FTMS_CLI_BIN not set";
  }

  HubRig rig;
  rig.hub.Publish(42);
  auto server = rig.Serve();

  const std::string out_path =
      ::testing::TempDir() + "/top_once_json_out.json";
  const std::string command = std::string(cli) + " top " + server->url() +
                              " --once --json > " + out_path;
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::ifstream in(out_path);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(body, rig.hub.Latest()->vars_json);
  std::remove(out_path.c_str());

  // The human-readable frame renders against the same endpoint.
  ASSERT_EQ(std::system((std::string(cli) + " top " + server->url() +
                         " --once > /dev/null")
                            .c_str()),
            0);
}

// The SR drill of ConcurrentScrapesDuringRunningDrill: tiny disks, so a
// rebuild takes a handful of cycles, and three streams on one movie.
std::unique_ptr<MultimediaServer> MakeDrillServer() {
  ServerConfig config;
  config.scheme = Scheme::kStreamingRaid;
  config.parity_group_size = 5;
  config.params.num_disks = 10;
  config.params.k_reserve = 2;
  config.params.disk.capacity_mb = 2.5;
  config.slots_per_disk = 4;
  config.telemetry_port = 0;
  auto server = std::move(MultimediaServer::Create(config).value());
  MediaObject movie;
  movie.id = 0;
  movie.rate_mb_s = 0.1875;
  movie.num_tracks = 200;
  EXPECT_TRUE(server->AddObject(movie).ok());
  for (int i = 0; i < 3; ++i) server->StartStream(0).value();
  return server;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr double kWaitMs =
    std::chrono::duration<double, std::milli>(TelemetryHub::kRenderWait)
        .count();

// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(TelemetryPublicationTest, PublishCycleInstallsReadinessOnly) {
  HubRig rig;
  rig.hub.Publish(1000);
  TelemetryReadiness state;
  state.sim_us = 2000;
  state.cycle = 7;
  state.rebuild_active = true;
  rig.hub.PublishCycle(state);

  const TelemetryReadiness newest = rig.hub.Readiness();
  EXPECT_EQ(newest.seq, 2u);
  EXPECT_EQ(newest.sim_us, 2000);
  EXPECT_EQ(newest.cycle, 7);
  EXPECT_FALSE(newest.ready());
  // The bodies still come from the forced publication.
  EXPECT_EQ(rig.hub.Latest()->seq, 1u);
  EXPECT_EQ(rig.hub.Latest()->sim_us, 1000);
  EXPECT_EQ(rig.hub.publish_count(), 2u);
  EXPECT_EQ(rig.hub.render_count(), 1u);
}

TEST(TelemetryPublicationTest, CyclesWithoutScrapesRenderNoBody) {
  auto server = MakeDrillServer();
  TelemetryHub* hub = server->telemetry_hub();
  ASSERT_NE(hub, nullptr);
  // Create() renders once so the endpoints have content before cycle 1.
  EXPECT_EQ(hub->render_count(), 1u);
  const uint64_t before = hub->publish_count();
  constexpr int kCycles = 64;
  server->RunCycles(kCycles);
  server->PublishTelemetry();  // exactly what a cycle end does
  EXPECT_EQ(hub->publish_count(), before + kCycles + 1);
  EXPECT_EQ(hub->render_count(), 1u);
  EXPECT_EQ(hub->Readiness().cycle, server->cycle());
  EXPECT_EQ(hub->Latest()->cycle, 0);
}

TEST(TelemetryPublicationTest, ReadyzTracksRebuildWithoutRenderingBodies) {
  auto server = MakeDrillServer();
  const TelemetryServer* http = server->telemetry_server();
  ASSERT_NE(http, nullptr);
  const uint64_t renders = server->telemetry_hub()->render_count();

  server->RunCycles(3);
  EXPECT_EQ(http->Handle(Get("/readyz")).status, 200);
  ASSERT_TRUE(server->FailDisk(1).ok());
  ASSERT_TRUE(server->StartRebuild(1).ok());
  server->RunCycles(1);
  ASSERT_TRUE(server->rebuild().Active());
  const HttpResponse during = http->Handle(Get("/readyz"));
  EXPECT_EQ(during.status, 503);
  EXPECT_NE(during.body.find("rebuild in flight"), std::string::npos);
  for (int guard = 0; server->rebuild().Active() && guard < 200; ++guard) {
    server->RunCycles(1);
  }
  ASSERT_FALSE(server->rebuild().Active());
  EXPECT_EQ(http->Handle(Get("/readyz")).status, 200);
  EXPECT_EQ(server->telemetry_hub()->render_count(), renders);
}

TEST(TelemetryPublicationTest, BodyScrapeSeesACycleEndAfterItArrived) {
  auto server = MakeDrillServer();
  TelemetryHub* hub = server->telemetry_hub();
  const std::string url = server->telemetry_server()->url();
  std::atomic<bool> stop{false};
  std::thread drill([&] {
    while (!stop.load(std::memory_order_acquire)) server->RunCycles(1);
  });
  for (int i = 0; i < 8; ++i) {
    const int64_t arrived_after = hub->Readiness().cycle;
    const auto response = HttpGet(url + "/vars");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const StatusOr<JsonValue> vars = JsonValue::Parse(response->body);
    ASSERT_TRUE(vars.ok()) << response->body;
    const JsonValue* cycle = vars->Find("cycle");
    ASSERT_NE(cycle, nullptr);
    EXPECT_GE(cycle->AsInt(-1), arrived_after);
  }
  stop.store(true, std::memory_order_release);
  drill.join();
  // Each scrape asked for one render at the next cycle end.
  EXPECT_GE(hub->render_count(), 2u);
}

TEST(TelemetryPublicationTest, ForcedPublicationServesMetricsWithoutWaiting) {
  HubRig rig;
  auto server = rig.Serve();
  for (int i = 0; i < 3; ++i) rig.hub.PublishCycle(TelemetryReadiness());
  rig.metrics.GetCounter("ftms_test_total", "A counter for the test")
      ->Add(5);
  rig.hub.Publish(123);
  const uint64_t renders = rig.hub.render_count();

  const auto start = std::chrono::steady_clock::now();
  const HttpResponse metrics = server->Handle(Get("/metrics"));
  EXPECT_LT(MillisSince(start), kWaitMs / 2);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.body, rig.metrics.PrometheusText());
  EXPECT_NE(metrics.body.find("ftms_test_total 12"), std::string::npos);
  EXPECT_EQ(rig.hub.render_count(), renders);
}

TEST(TelemetryPublicationTest, StopWakesAWaitingBodyRequest) {
  HubRig rig;
  rig.hub.Publish(0);
  rig.hub.PublishCycle(TelemetryReadiness());  // newest is not rendered
  auto server = rig.Serve();
  const std::string url = server->url();

  StatusOr<HttpResponse> scraped = Status::Unavailable("not scraped");
  std::thread scraper([&] { scraped = HttpGet(url + "/vars"); });
  // Nothing publishes, so the request waits for a render that never comes.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  server->Stop();
  EXPECT_LT(MillisSince(start), kWaitMs / 2);
  scraper.join();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(scraped->status, 200);
  EXPECT_EQ(scraped->body, rig.hub.Latest()->vars_json);
  EXPECT_EQ(rig.hub.render_count(), 1u);
}

TEST(TelemetryPublicationTest, ExpiredWaitIsNotRepeatedUntilAPublication) {
  HubRig rig;
  rig.hub.Publish(0);
  rig.hub.PublishCycle(TelemetryReadiness());
  auto server = rig.Serve();

  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(server->Handle(Get("/vars")).status, 200);
  EXPECT_GE(MillisSince(start), kWaitMs * 0.9);  // waited out the bound
  start = std::chrono::steady_clock::now();
  EXPECT_EQ(server->Handle(Get("/vars")).status, 200);
  EXPECT_LT(MillisSince(start), kWaitMs / 2);  // nothing new: no wait
  // The expired request's ask still stands: the next cycle end renders.
  rig.hub.PublishCycle(TelemetryReadiness());
  EXPECT_EQ(rig.hub.render_count(), 2u);
  EXPECT_EQ(rig.hub.Latest()->seq, 3u);
}

TEST(TelemetryPortTest, MalformedEnvironmentPortFailsCreate) {
  ServerConfig config;
  config.telemetry_port = -1;  // defer to FTMS_TELEMETRY_PORT
  for (const char* port : {"abc", "0x1", "-7", "65536", "4294967377", " 80",
                           "+80", "80 "}) {
    const ScopedEnv env("FTMS_TELEMETRY_PORT", port);
    const auto server = MultimediaServer::Create(config);
    EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument)
        << "FTMS_TELEMETRY_PORT='" << port << "'";
  }
  // Unset and empty keep telemetry off.
  const ScopedEnv env("FTMS_TELEMETRY_PORT", "");
  const auto server = MultimediaServer::Create(config);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->telemetry_server(), nullptr);
}

TEST(TelemetryPortTest, StartRejectsPortsOutsideTheTcpRange) {
  TelemetryHub hub;
  for (const int port : {70000, 65536, -1}) {
    TelemetryServerOptions options;
    options.port = port;
    EXPECT_EQ(TelemetryServer::Start(&hub, options).status().code(),
              StatusCode::kInvalidArgument)
        << port;
  }
}

TEST(TelemetryServerTest, JournalTailRejectsCountsThatAreNotWholeNumbers) {
  HubRig rig;
  rig.hub.Publish(0);
  auto server = rig.Serve();
  // '+' in a query decodes to a space; %2B is a literal plus.
  for (const char* target :
       {"/journal/tail?n=%205", "/journal/tail?n=%2B5", "/journal/tail?n=+5",
        "/journal/tail?n=5%20", "/journal/tail?n=0x5", "/journal/tail?n=",
        "/journal/tail?n=99999999999999999999"}) {
    EXPECT_EQ(server->Handle(Get(target)).status, 400) << target;
  }
  EXPECT_EQ(server->Handle(Get("/journal/tail?n=5")).status, 200);
}

TEST(TelemetryServerTest, CliRejectsMalformedDelays) {
  const char* cli = std::getenv("FTMS_CLI_BIN");
  if (cli == nullptr || cli[0] == '\0') {
    GTEST_SKIP() << "FTMS_CLI_BIN not set";
  }
  for (const char* env :
       {"FTMS_TELEMETRY_CYCLE_DELAY_MS=abc", "FTMS_TELEMETRY_CYCLE_DELAY_MS=-5",
        "FTMS_TELEMETRY_CYCLE_DELAY_MS=5ms", "FTMS_TELEMETRY_LINGER_MS=1e3",
        "FTMS_TELEMETRY_LINGER_MS=+100"}) {
    const std::string command =
        std::string(env) + " " + cli + " qos sr > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << env;
    EXPECT_EQ(WEXITSTATUS(status), 1) << env;
  }
}

}  // namespace
}  // namespace ftms
