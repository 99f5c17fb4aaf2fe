// ftms — command-line front end to the library.
//
//   ftms tables [C]                      regenerate the paper's comparison
//                                        table for parity group size C
//   ftms plan <W_gb> <streams>           size the cheapest system (Section
//        [disk_$/MB] [mem_$/MB]          5's design study)
//   ftms simulate <scheme> <C> <D>       run the cycle simulation with a
//        <streams> <cycles>              failure drill at mid-run
//        [fail_disk]
//   ftms reliability <D> <C> [K]         closed-form + exact reliability,
//                                        plus the dual-parity (P+Q) MTTF
//                                        with a Monte-Carlo cross-check
//                                        and the cost-per-stream crossover
//                                        of the second parity disk
//   ftms qos <scheme> [C] [D]            failure + rebuild drill with the
//        [--json] [--journal-out FILE]   per-stream QoS ledger, SLO table
//                                        and model-conformance watchdog;
//                                        exits 1 on a bound violation.
//                                        Dual-parity schemes drill a
//                                        DOUBLE failure (two disks of one
//                                        cluster) and rebuild both.
//   ftms report <journal.jsonl>          unified run report from a
//        [--metrics BENCH.json]          recorded journal plus optional
//        [--timeseries ts.json]          bench/profile and time-series
//        [--md|--json|--chrome]          artifacts, as Markdown, JSON or
//                                        a Chrome/Perfetto timeline;
//                                        exits 1 on malformed inputs.
//   ftms top <url> [--once] [--json]     live ANSI dashboard over a
//        [--interval-ms N] [--frames N]  running drill's telemetry
//                                        endpoint (FTMS_TELEMETRY_PORT);
//                                        --once --json dumps /vars for
//                                        scripting.
//
// Schemes: sr | sg | nc | ib | sr2 | nc2.
//
// Telemetry environment knobs (see README "Live telemetry"):
//   FTMS_TELEMETRY_PORT        enable the exporter (0 = ephemeral port)
//   FTMS_TELEMETRY_PORT_FILE   write the bound port here (for scripts)
//   FTMS_TELEMETRY_CYCLE_DELAY_MS  slow the drill for live observation
//   FTMS_TELEMETRY_LINGER_MS   keep serving after the drill completes

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "model/cost.h"
#include "model/reliability_model.h"
#include "model/tables.h"
#include "qos/conformance.h"
#include "qos/event_journal.h"
#include "qos/qos_ledger.h"
#include "qos/run_report.h"
#include "reliability/birth_death.h"
#include "reliability/markov_sim.h"
#include "server/server.h"
#include "telemetry/http.h"
#include "telemetry/top.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace ftms {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ftms tables [C]\n"
      "  ftms plan <W_gb> <streams> [disk_$/MB] [mem_$/MB]\n"
      "  ftms simulate <sr|sg|nc|ib|sr2|nc2> <C> <D> <streams> <cycles> "
      "[fail_disk]\n"
      "  ftms reliability <D> <C> [K]\n"
      "  ftms qos <sr|sg|nc|ib|sr2|nc2> [C] [D] [--json] "
      "[--journal-out FILE]\n"
      "  ftms report <journal.jsonl> [--metrics BENCH.json] "
      "[--timeseries ts.json] [--md|--json|--chrome]\n"
      "  ftms top <url> [--once] [--json] [--interval-ms N] "
      "[--frames N]\n");
  return 2;
}

Scheme ParseScheme(const char* arg) {
  if (std::strcmp(arg, "sg") == 0) return Scheme::kStaggeredGroup;
  if (std::strcmp(arg, "nc") == 0) return Scheme::kNonClustered;
  if (std::strcmp(arg, "ib") == 0) return Scheme::kImprovedBandwidth;
  if (std::strcmp(arg, "sr2") == 0) return Scheme::kStreamingRaid2;
  if (std::strcmp(arg, "nc2") == 0) return Scheme::kNonClustered2;
  return Scheme::kStreamingRaid;
}

int CmdTables(int argc, char** argv) {
  const int c = argc > 2 ? std::atoi(argv[2]) : 5;
  SystemParameters params;
  auto rows = ComputeComparisonTable(params, c);
  if (!rows.ok()) {
    std::fprintf(stderr, "error: %s\n", rows.status().ToString().c_str());
    return 1;
  }
  std::printf("Scheme comparison at C = %d (Table 1 parameters):\n%s", c,
              FormatComparisonTable(*rows).c_str());
  return 0;
}

int CmdPlan(int argc, char** argv) {
  if (argc < 4) return Usage();
  DesignParameters design;
  design.working_set_mb = std::atof(argv[2]) * 1000.0;
  PlanRequest request;
  request.required_streams = std::atof(argv[3]);
  if (argc > 4) design.disk_cost_per_mb = std::atof(argv[4]);
  if (argc > 5) design.memory_cost_per_mb = std::atof(argv[5]);
  SystemParameters params;
  params.k_reserve = 5;
  const auto plans = PlanAllSchemes(design, params, request);
  if (plans.empty()) {
    std::printf("no feasible design for %.0f streams over %.0f GB\n",
                request.required_streams, design.working_set_mb / 1000);
    return 1;
  }
  std::printf("%-22s %4s %6s %9s %10s %12s\n", "Scheme", "C", "disks",
              "streams", "RAM (MB)", "cost ($)");
  for (const DesignPoint& p : plans) {
    std::printf("%-22s %4d %6d %9d %10.0f %12.0f\n",
                std::string(SchemeName(p.scheme)).c_str(),
                p.parity_group_size, p.num_disks, p.max_streams,
                p.buffer_mb, p.cost_dollars);
  }
  std::printf("-> %s\n",
              std::string(SchemeName(plans.front().scheme)).c_str());
  return 0;
}

int CmdSimulate(int argc, char** argv) {
  if (argc < 7) return Usage();
  ServerConfig config;
  config.scheme = ParseScheme(argv[2]);
  config.parity_group_size = std::atoi(argv[3]);
  config.params.num_disks = std::atoi(argv[4]);
  const int streams = std::atoi(argv[5]);
  const int cycles = std::atoi(argv[6]);
  const int fail_disk = argc > 7 ? std::atoi(argv[7]) : -1;
  config.params.k_reserve =
      std::min(3, config.params.num_disks - 1);

  auto server_or = MultimediaServer::Create(config);
  if (!server_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(*server_or);
  // One object per cluster so the load spreads across the farm, and
  // staggered admission so SG/NC positions spread across read phases.
  const int num_objects = server->layout().num_clusters();
  for (int i = 0; i < num_objects; ++i) {
    MediaObject obj;
    obj.id = i;
    obj.rate_mb_s = config.params.object_rate_mb_s;
    obj.num_tracks = static_cast<int64_t>(cycles) *
                     (config.parity_group_size - 1) * 4;
    if (Status s = server->AddObject(obj); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const int stagger = server->scheduler().slots_per_disk();
  for (int i = 0; i < streams; ++i) {
    if (!server->StartStream(i % num_objects).ok()) {
      std::fprintf(stderr,
                   "admission stopped at %d streams (capacity %d)\n", i,
                   server->admission().capacity());
      break;
    }
    if (stagger > 0 && i % stagger == stagger - 1) server->RunCycles(1);
  }
  server->RunCycles(cycles / 2);
  if (fail_disk >= 0) {
    if (Status s = server->FailDisk(fail_disk); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("disk %d failed at cycle %lld\n", fail_disk,
                static_cast<long long>(server->cycle()));
  }
  server->RunCycles(cycles - cycles / 2);
  std::printf("%s\n", server->Summary().c_str());
  const SchedulerMetrics& m = server->scheduler().metrics();
  std::printf(
      "reads: %lld data + %lld parity, %lld failed, %lld dropped\n"
      "delivery: %lld on time, %lld hiccups, %lld reconstructed\n"
      "buffers: peak %lld tracks (%.1f MB)\n",
      static_cast<long long>(m.data_reads),
      static_cast<long long>(m.parity_reads),
      static_cast<long long>(m.failed_reads),
      static_cast<long long>(m.dropped_reads),
      static_cast<long long>(m.tracks_delivered),
      static_cast<long long>(m.hiccups),
      static_cast<long long>(m.reconstructed),
      static_cast<long long>(
          server->scheduler().buffer_pool().peak_in_use()),
      static_cast<double>(server->scheduler().buffer_pool().peak_in_use()) *
          config.params.disk.track_mb);
  return 0;
}

// A whole, non-negative number of milliseconds from the environment;
// unset or empty reads as 0, anything else is an error rather than a
// silent stand-in value.
StatusOr<int> EnvMillis(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return 0;
  const std::optional<int64_t> ms =
      ParseDecimal(env, 0, std::numeric_limits<int>::max());
  if (!ms) {
    return Status::InvalidArgument(
        std::string(name) + " must be a whole number of milliseconds, got '" +
        env + "'");
  }
  return static_cast<int>(*ms);
}

const char* StreamStateName(StreamState state) {
  switch (state) {
    case StreamState::kActive:
      return "active";
    case StreamState::kPaused:
      return "paused";
    case StreamState::kCompleted:
      return "completed";
    case StreamState::kTerminated:
      return "terminated";
  }
  return "unknown";
}

// Failure + rebuild drill observed end-to-end through the QoS subsystem:
// per-stream hiccup attribution, SLO budget burn, and the conformance
// watchdog's verdict on the paper's loss bounds.
int CmdQos(int argc, char** argv) {
  if (argc < 3) return Usage();
  bool json = false;
  std::string journal_out;
  int positional[2] = {5, 0};  // C, D
  int npos = 0;
  Scheme scheme = ParseScheme(argv[2]);
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--journal-out") == 0 &&
               i + 1 < argc) {
      journal_out = argv[++i];
    } else if (npos < 2) {
      positional[npos++] = std::atoi(argv[i]);
    }
  }
  const int c = positional[0];
  EventJournal journal;
  QosLedger ledger;
  ledger.set_journal(&journal);

  ServerConfig config;
  config.scheme = scheme;
  config.parity_group_size = c;
  config.params.num_disks =
      positional[1] > 0
          ? positional[1]
          : (scheme == Scheme::kImprovedBandwidth ? 2 * (c - 1) : 2 * c);
  config.params.k_reserve = std::min(3, config.params.num_disks - 1);
  // Tiny disks keep the rebuild phase to a handful of cycles.
  config.params.disk.capacity_mb = 2.5;
  config.journal = &journal;
  config.ledger = &ledger;

  // FTMS_TELEMETRY_CYCLE_DELAY_MS slows the drill to human/scraper speed;
  // FTMS_TELEMETRY_LINGER_MS keeps the exporter serving the final
  // snapshot after the drill, so scripts can scrape the settled state.
  const StatusOr<int> cycle_delay_ms =
      EnvMillis("FTMS_TELEMETRY_CYCLE_DELAY_MS");
  const StatusOr<int> linger_ms = EnvMillis("FTMS_TELEMETRY_LINGER_MS");
  for (const Status& s : {cycle_delay_ms.status(), linger_ms.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  auto server_or = MultimediaServer::Create(config);
  if (!server_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(*server_or);

  // With FTMS_TELEMETRY_PORT set the drill is live-observable; announce
  // the bound port (and write it to FTMS_TELEMETRY_PORT_FILE for
  // scripts racing against an ephemeral port 0).
  if (const TelemetryServer* telemetry = server->telemetry_server()) {
    std::fprintf(stderr, "telemetry: serving %s\n",
                 telemetry->url().c_str());
    if (const char* port_file = std::getenv("FTMS_TELEMETRY_PORT_FILE");
        port_file != nullptr && port_file[0] != '\0') {
      if (std::FILE* f = std::fopen(port_file, "w")) {
        std::fprintf(f, "%d\n", telemetry->port());
        std::fclose(f);
      }
    }
  }
  const auto run_cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      server->RunCycles(1);
      if (*cycle_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(*cycle_delay_ms));
      }
    }
  };

  const int num_objects = server->layout().num_clusters();
  for (int i = 0; i < num_objects; ++i) {
    MediaObject obj;
    obj.id = i;
    obj.rate_mb_s = config.params.object_rate_mb_s;
    obj.num_tracks = 24;
    if (Status s = server->AddObject(obj); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // Two staggered streams per cluster, so the failure lands on streams at
  // different group positions.
  for (int i = 0; i < 2 * num_objects; ++i) {
    if (!server->StartStream(i % num_objects).ok()) break;
    run_cycles(1);
  }
  run_cycles(4);
  // Dual-parity schemes drill their full tolerance: TWO disks of cluster 0
  // go down concurrently and both are rebuilt (the second rebuild starts
  // while the cluster still runs on P+Q-repaired reads).
  const int fail_count = IsDualParity(scheme) ? 2 : 1;
  for (int fail_disk = 0; fail_disk < fail_count; ++fail_disk) {
    if (Status s = server->FailDisk(fail_disk, /*mid_cycle=*/true);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    run_cycles(1);
  }
  run_cycles(c);  // degraded operation across the transition window
  for (int fail_disk = 0; fail_disk < fail_count; ++fail_disk) {
    if (Status s = server->StartRebuild(fail_disk); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    for (int i = 0; i < 200 && server->rebuild().Active(); ++i) {
      run_cycles(1);
    }
  }
  run_cycles(4);  // settle after the repair

  ConformanceWatchdog watchdog(&server->scheduler(), &journal);
  const auto findings = watchdog.Run();
  const auto& streams = server->scheduler().streams();

  if (json) {
    std::string out = "{\n  \"status_line\": ";
    AppendJsonString(&out, server->StatusLine());
    out += ",\n  \"ledger\": ";
    out += ledger.DumpJson(streams, "  ");
    out += ",\n  \"conformance\": ";
    out += ConformanceWatchdog::ToJson(findings, "    ");
    out += ",\n  \"qos\": ";
    out += journal.StatsJson("    ", "  ");
    // Active per-SLO budget burn, so dashboards get the live burn rate
    // without re-deriving it from the ledger block.
    out += ",\n  \"slo_burn\": {";
    const auto statuses = ledger.Evaluate(streams);
    for (size_t i = 0; i < statuses.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    ";
      AppendJsonString(&out, statuses[i].spec.name);
      out += ": ";
      AppendJsonNumber(&out, statuses[i].budget_burn, 6);
    }
    out += statuses.empty() ? "}" : "\n  }";
    out += ",\n  \"active_breaches\": " +
           std::to_string(ledger.active_breaches());
    out += "\n}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf("%s\n\n", server->StatusLine().c_str());
    std::printf("%-6s %-10s %8s %8s %9s %8s %9s %11s\n", "stream", "state",
                "admit", "startup", "delivered", "hiccups", "degraded",
                "continuity");
    for (const StreamQosRecord& r : ledger.Capture(streams)) {
      std::printf("%-6d %-10s %8lld %8lld %9lld %8lld %9lld %11.4f\n",
                  r.id, StreamStateName(r.state),
                  static_cast<long long>(r.admitted_cycle),
                  static_cast<long long>(r.startup_cycles),
                  static_cast<long long>(r.delivered),
                  static_cast<long long>(r.hiccups),
                  static_cast<long long>(r.degraded_cycles), r.continuity);
    }
    std::printf("\n%-32s %10s %10s %12s %9s\n", "slo", "observed", "bound",
                "budget_burn", "breached");
    for (const SloStatus& s : ledger.Evaluate(streams)) {
      std::printf("%-32s %10.4g %10.4g %12.4g %9s\n", s.spec.name.c_str(),
                  s.observed, s.effective_bound, s.budget_burn,
                  s.breached ? "YES" : "no");
    }
    std::printf("\n%s", ConformanceWatchdog::FormatTable(findings).c_str());
    std::printf("\njournal: %zu events (rebuild done in %lld cycles)\n",
                journal.size(),
                static_cast<long long>(server->rebuild().cycles_elapsed()));
  }

  if (!journal_out.empty()) {
    if (Status s = journal.WriteJsonl(journal_out); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", journal_out.c_str());
  }
  // Final rendered snapshot at the last serial point, BEFORE the registry
  // dump: a post-run scrape of /metrics is byte-identical to
  // FTMS_METRICS_OUT.
  server->ForcePublishTelemetry();
  WriteRunDumps({.metrics = MetricsRegistry::GlobalIfEnabled(),
                 .journal = &journal,
                 .profile = Profiler::GlobalEnabled(),
                 .timeseries = TimeSeriesRecorder::GlobalIfEnabled()},
                stderr);
  if (server->telemetry_server() != nullptr && *linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(*linger_ms));
  }
  if (!ConformanceWatchdog::AllOk(findings)) {
    std::fprintf(stderr, "conformance: VIOLATION of a paper bound\n");
    return 1;
  }
  return 0;
}

// `ftms top <url>`: live dashboard over a drill's telemetry endpoint.
int CmdTop(int argc, char** argv) {
  if (argc < 3) return Usage();
  TopOptions options;
  options.url = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      options.once = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(argv[i], "--no-color") == 0) {
      options.color = false;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 &&
               i + 1 < argc) {
      options.interval_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      options.max_frames = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  // Trim a trailing slash so endpoint concatenation stays clean.
  if (!options.url.empty() && options.url.back() == '/') {
    options.url.pop_back();
  }
  return RunTop(options);
}

// Renders a recorded run (journal JSONL + optional bench/profile and
// time-series artifacts) as one report or timeline. Strict on inputs: any
// unreadable or malformed file exits 1.
int CmdReport(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string journal_path = argv[2];
  std::string metrics_path;
  std::string timeseries_path;
  std::string (*render)(const RunReport&) = RenderRunReportMarkdown;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeseries") == 0 && i + 1 < argc) {
      timeseries_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      render = RenderRunReportJson;
    } else if (std::strcmp(argv[i], "--md") == 0) {
      render = RenderRunReportMarkdown;
    } else if (std::strcmp(argv[i], "--chrome") == 0) {
      render = RenderRunReportChrome;
    } else {
      return Usage();
    }
  }
  const auto report =
      LoadRunReport(journal_path, metrics_path, timeseries_path);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fputs(render(*report).c_str(), stdout);
  return 0;
}

int CmdReliability(int argc, char** argv) {
  if (argc < 4) return Usage();
  SystemParameters params;
  params.num_disks = std::atoi(argv[2]);
  const int c = std::atoi(argv[3]);
  params.k_reserve = argc > 4 ? std::atoi(argv[4]) : 3;
  std::printf("D = %d, C = %d, K = %d, MTTF = %.0f h, MTTR = %.0f h\n",
              params.num_disks, c, params.k_reserve,
              params.disk.mttf_hours, params.disk.mttr_hours);
  for (Scheme scheme : kAllSchemes) {
    auto mttf = MttfCatastrophicHours(params, scheme, c);
    auto mttds = MttdsHours(params, scheme, c);
    if (!mttf.ok() || !mttds.ok()) continue;
    std::printf("%-22s MTTF %12.1f years   MTTDS %14.1f years\n",
                std::string(SchemeName(scheme)).c_str(),
                HoursToYears(*mttf), HoursToYears(*mttds));
  }
  const auto exact = ExactKConcurrentMeanHours(
      params.disk.mttf_hours, params.disk.mttr_hours, params.num_disks,
      params.k_reserve);
  if (exact.ok()) {
    std::printf(
        "exact birth-death K-concurrent hitting time: %.1f years\n"
        "(the paper's equation (6) omits a (K-1)! factor)\n",
        HoursToYears(*exact));
  }

  if (c < 3) return 0;
  std::printf("\ndual parity (P+Q, two parity disks per cluster):\n");
  for (Scheme scheme : kDualParitySchemes) {
    auto mttf = MttfCatastrophicHours(params, scheme, c);
    auto mttds = MttdsHours(params, scheme, c);
    if (!mttf.ok() || !mttds.ok()) continue;
    std::printf("%-22s MTTF %12.4g years   MTTDS %14.1f years\n",
                std::string(SchemeName(scheme)).c_str(),
                HoursToYears(*mttf), HoursToYears(*mttds));
  }

  // Monte-Carlo cross-check of the double-failure MTTDL at a scaled-down
  // MTTF/MTTR ratio (real parameters make three-in-a-cluster events take
  // geological time; the formula is scale-free in the ratio).
  if (params.num_disks % c == 0) {
    ReliabilitySimConfig sim;
    sim.num_disks = params.num_disks;
    sim.parity_group_size = c;
    sim.scheme = Scheme::kStreamingRaid2;
    sim.mttf_hours = 1000.0;
    sim.mttr_hours = 10.0;
    sim.trials = 200;
    SystemParameters scaled = params;
    scaled.disk.mttf_hours = sim.mttf_hours;
    scaled.disk.mttr_hours = sim.mttr_hours;
    const auto mc = EstimateMttfCatastrophic(sim);
    const auto cf =
        MttfCatastrophicHours(scaled, Scheme::kStreamingRaid2, c);
    if (mc.ok() && cf.ok()) {
      std::printf(
          "double-failure MTTDL Monte-Carlo (scaled MTTF/MTTR %.0f/%.0f "
          "h): %.0f h +/- %.0f vs closed form %.0f h\n",
          sim.mttf_hours, sim.mttr_hours, mc->mean_hours, mc->ci95_hours,
          *cf);
    }
  }

  // When does the second parity disk pay for itself? Compare cost per
  // stream (Section 5 sizing at the working set below) for the base
  // scheme at C against its dual-parity variant at growing group sizes:
  // the crossover C' is where widening the group has absorbed the extra
  // parity disk's capacity and buffer cost.
  DesignParameters design;
  for (Scheme dual : kDualParitySchemes) {
    const Scheme base = BaseScheme(dual);
    const auto base_pt = EvaluateDesign(design, params, base, c);
    if (!base_pt.ok() || base_pt->max_streams <= 0) continue;
    const double base_cps =
        base_pt->cost_dollars / base_pt->max_streams;
    std::printf("%-22s $/stream %8.0f at C=%d\n",
                std::string(SchemeName(base)).c_str(), base_cps, c);
    int crossover = -1;
    double dual_cps_at_c = 0;
    for (int cd = c; cd <= c + 12; ++cd) {
      const auto dual_pt = EvaluateDesign(design, params, dual, cd);
      if (!dual_pt.ok() || dual_pt->max_streams <= 0) continue;
      const double cps = dual_pt->cost_dollars / dual_pt->max_streams;
      if (cd == c) dual_cps_at_c = cps;
      if (cps <= base_cps) {
        crossover = cd;
        break;
      }
    }
    if (crossover >= 0) {
      std::printf(
          "%-22s $/stream %8.0f at C=%d; crosses below %s at C'=%d\n",
          std::string(SchemeName(dual)).c_str(), dual_cps_at_c, c,
          std::string(SchemeAbbrev(base)).c_str(), crossover);
    } else {
      std::printf(
          "%-22s $/stream %8.0f at C=%d; no crossover up to C'=%d\n",
          std::string(SchemeName(dual)).c_str(), dual_cps_at_c, c,
          c + 12);
    }
  }
  return 0;
}

}  // namespace
}  // namespace ftms

int main(int argc, char** argv) {
  using namespace ftms;
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "tables") == 0) return CmdTables(argc, argv);
  if (std::strcmp(argv[1], "plan") == 0) return CmdPlan(argc, argv);
  if (std::strcmp(argv[1], "simulate") == 0) {
    return CmdSimulate(argc, argv);
  }
  if (std::strcmp(argv[1], "reliability") == 0) {
    return CmdReliability(argc, argv);
  }
  if (std::strcmp(argv[1], "qos") == 0) return CmdQos(argc, argv);
  if (std::strcmp(argv[1], "report") == 0) return CmdReport(argc, argv);
  if (std::strcmp(argv[1], "top") == 0) return CmdTop(argc, argv);
  return Usage();
}
