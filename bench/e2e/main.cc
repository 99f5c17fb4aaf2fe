// bench_e2e: runs one workload of the end-to-end benchmark in one process.
//
//   bench_e2e --workload <name> --seed <n> [--seconds s] [--scale x]
//             [--drills n] [--trace out.json]
//
// Repeats the workload's drill on the same seeded inputs until --seconds
// of wall time are spent (or exactly --drills times) and prints one JSON
// object: the environment stamp, one drill's deterministic counts and
// every metric with its unit and sample count. With --trace it also runs
// traced drills, writes their spans and the per-layer table to the file
// and adds the per-layer metrics. Exits 1 after printing when a
// correctness check fails, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "parity/pq_kernels.h"
#include "parity/xor_kernels.h"
#include "sim/event_queue.h"
#include "util/thread_pool.h"

namespace ftms::e2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kBlockMiB = kBlockBytes / kMiB;
constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  double scale = 0;  // 0 = the workload's default
  int drills = 0;    // 0 = as many as --seconds allows
  std::string trace;
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> --seed <n> "
               "[--seconds s] [--scale x] [--drills n] [--trace out.json]\n"
               "workloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--trace") {
      args->trace = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(number) ||
        number < 0) {
      return false;
    }
    if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args->seconds = number;
    } else if (flag == "--scale") {
      args->scale = number;
    } else if (flag == "--drills") {
      args->drills = static_cast<int>(number);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Drills of one configuration (untraced, traced, or sinks off).
struct Leg {
  std::vector<Drill> drills;

  double MedianOf(const std::function<double(const Drill&)>& f) const {
    std::vector<double> v;
    for (const Drill& d : drills) v.push_back(f(d));
    return Median(v);
  }
  double SumOf(const std::function<double(const Drill&)>& f) const {
    double sum = 0;
    for (const Drill& d : drills) sum += f(d);
    return sum;
  }
};

// Runs drills until the next one would end past `deadline` (but at least
// `min_drills`), or exactly `fixed` drills when that is positive.
Status RunLeg(const Workload& workload, const DrillOptions& options,
              Clock::time_point deadline, int min_drills, int fixed,
              Leg* leg) {
  Clock::duration last{};
  for (;;) {
    const int n = static_cast<int>(leg->drills.size());
    if (fixed > 0 ? n >= fixed
                  : n >= min_drills && Clock::now() + last > deadline) {
      return Status::Ok();
    }
    const Clock::time_point start = Clock::now();
    Drill drill;
    FTMS_RETURN_IF_ERROR(workload.run(options, &drill));
    last = Clock::now() - start;
    leg->drills.push_back(std::move(drill));
    // Spans are kept for the first traced drill only.
    if (options.tracer != nullptr) options.tracer->set_keep_spans(false);
  }
}

// Every drill of a leg runs identical inputs, so must count identically.
void CheckRepeatable(const Leg& leg, const char* name,
                     std::vector<std::string>* errors) {
  for (const Drill& drill : leg.drills) {
    if (!(drill.counts == leg.drills.front().counts)) {
      errors->push_back(std::string(name) +
                        " drills counted differently on the same inputs");
      return;
    }
  }
}

class JsonOut {
 public:
  void Key(const std::string& key) {
    out_ += sep_;
    out_ += "\"" + key + "\": ";
    sep_ = ", ";
  }
  void Open(const std::string& key) {
    Key(key);
    out_ += "{";
    sep_ = "";
  }
  void Close() {
    out_ += "}";
    sep_ = ", ";
  }
  void Number(const std::string& key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
  }
  void Int(const std::string& key, int64_t v) {
    Key(key);
    out_ += std::to_string(v);
  }
  void String(const std::string& key, std::string_view v) {
    Key(key);
    Quote(v);
  }
  void Strings(const std::string& key, const std::vector<std::string>& v) {
    Key(key);
    out_ += "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ += ", ";
      Quote(v[i]);
    }
    out_ += "]";
  }
  void Bool(const std::string& key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Metric(const std::string& name, double value, const char* unit,
              int64_t samples) {
    Open(name);
    Number("value", value);
    String("unit", unit);
    Int("samples", samples);
    Close();
  }
  std::string Finish() const { return out_ + "}"; }

 private:
  void Quote(std::string_view v) {
    out_ += "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    out_ += "\"";
  }

  std::string out_ = "{";
  const char* sep_ = "";
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// The fastest quarter of a leg's drills (all of them do identical work),
// ordered by `field`. The shared hosts this runs on switch between two
// speeds about 2x apart for seconds at a time, so a run's fastest drills
// measure the code rather than how long the host spent in its slow state
// (see README.md).
Leg FastestQuarter(const Leg& leg, double Drill::*field) {
  Leg fast = leg;
  std::sort(fast.drills.begin(), fast.drills.end(),
            [field](const Drill& a, const Drill& b) {
              return a.*field < b.*field;
            });
  fast.drills.resize((fast.drills.size() + 3) / 4);
  return fast;
}

// Metrics a user of the server sees, from the untraced drills.
void EndToEndMetrics(const Leg& leg, double once_s, JsonOut* out) {
  const Leg fast = FastestQuarter(leg, &Drill::loop_wall_s);
  const Leg fast_setup = FastestQuarter(leg, &Drill::setup_s);
  const int64_t drills = static_cast<int64_t>(fast.drills.size());
  std::vector<double> loads;
  for (const Drill& d : fast.drills) {
    loads.insert(loads.end(), d.cycle_load.begin(), d.cycle_load.end());
  }
  const int64_t cycles = static_cast<int64_t>(loads.size());
  out->Metric("setup_s",
              once_s +
                  fast_setup.MedianOf([](const Drill& d) { return d.setup_s; }),
              "s", drills);
  out->Metric("ontime_tracks_per_s", fast.MedianOf([](const Drill& d) {
                return Ratio(static_cast<double>(d.counts.tracks_ontime),
                             d.loop_s());
              }),
              "tracks/s", drills);
  out->Metric("cycle_load_p50", Quantile(loads, 0.50), "ratio", cycles);
  out->Metric("cycle_load_p95", Quantile(loads, 0.95), "ratio", cycles);
  out->Metric("peak_rss_mb", PeakRssMb(), "MB", 1);
}

// Per-layer metrics. `base` is the untraced leg, `traced` the traced one,
// `sinks_off` the sink-free leg of a workload that has sinks (else empty).
void PerLayerMetrics(const Leg& base, const Leg& traced, const Leg& sinks_off,
                     const Tracer& tracer, const Profiler::MergedNode& tree,
                     const LayerTable& layers, JsonOut* out) {
  const Counts& c = base.drills.front().counts;
  const double n_traced = static_cast<double>(traced.drills.size());
  const int64_t samples = static_cast<int64_t>(traced.drills.size());
  const double loop_s =
      traced.SumOf([](const Drill& d) { return d.loop_wall_s; });
  const auto scope = [&tree](std::string_view name) {
    double total_s = 0;
    int64_t count = 0;
    ScopeTotals(tree, name, &total_s, &count);
    return std::make_pair(total_s, count);
  };
  const auto per_call_us = [&scope](std::string_view name) {
    const auto [total_s, count] = scope(name);
    return Ratio(total_s * 1e6, static_cast<double>(count));
  };
  const auto share = [&](const char* name, const char* layer) {
    out->Metric(name, Ratio(layers.Get(layer), loop_s), "ratio", samples);
  };
  const auto count = [&](const char* name, int64_t v) {
    out->Metric(name, static_cast<double>(v), "count", 1);
  };

  out->Metric("server.cycle_us", per_call_us("server/run_cycle"), "us",
              scope("server/run_cycle").second);
  share("server.share", "server");

  out->Metric("sched.cycle_us", per_call_us("sched/cycle"), "us",
              scope("sched/cycle").second);
  share("sched.share", "sched");
  count("sched.reads", c.sched_reads);
  count("sched.dropped_reads", c.dropped_reads);
  count("sched.reconstructed", c.sched_reconstructed);
  count("sched.hiccups", c.hiccups);
  out->Metric("sched.hiccup_ratio",
              Ratio(static_cast<double>(c.hiccups),
                    static_cast<double>(c.tracks_due)),
              "ratio", 1);

  share("qos.share", "qos");
  count("qos.journal_events", c.journal_events);

  out->Metric("disk.slot_util",
              Ratio(static_cast<double>(c.slots_used),
                    static_cast<double>(c.slots_offered)),
              "ratio", 1);
  count("buffer.peak_tracks", c.buffer_peak);

  const double starts = base.SumOf(
      [](const Drill& d) { return static_cast<double>(d.counts.starts); });
  const double stops = base.SumOf(
      [](const Drill& d) { return static_cast<double>(d.counts.stops); });
  out->Metric("stream.start_us",
              Ratio(base.SumOf([](const Drill& d) { return d.start_s; }) * 1e6,
                    starts),
              "us", static_cast<int64_t>(starts));
  out->Metric("stream.stop_us",
              Ratio(base.SumOf([](const Drill& d) { return d.stop_s; }) * 1e6,
                    stops),
              "us", static_cast<int64_t>(stops));
  share("stream.share", "stream");
  count("stream.admitted", c.admitted);
  count("stream.rejected", c.rejected);
  out->Metric("stream.reject_ratio",
              Ratio(static_cast<double>(c.rejected),
                    static_cast<double>(c.starts)),
              "ratio", 1);

  const double direct_s = scope("verify/read_direct").first;
  const double reconstruct_s = scope("verify/read_reconstruct").first;
  share("verify.share", "verify");
  count("verify.direct_reads", c.direct_reads);
  count("verify.reconstructed_reads", c.reconstructed_reads);
  out->Metric("verify.direct_mb_per_s",
              Ratio(n_traced * static_cast<double>(c.direct_reads) * kBlockMiB,
                    direct_s),
              "MB/s", samples);
  out->Metric("verify.reconstruct_mb_per_s",
              Ratio(n_traced * static_cast<double>(c.reconstructed_reads) *
                        kBlockMiB,
                    reconstruct_s),
              "MB/s", samples);
  out->Metric("verify.source_mb_per_s",
              Ratio(n_traced * static_cast<double>(c.source_bytes) / kMiB,
                    reconstruct_s),
              "MB/s", samples);
  count("verify.failures", c.datapath_failures + c.mismatches);

  const auto [xor_s, xor_n] = scope("parity/xor");
  const auto [pq_s, pq_n] = scope("parity/pq");
  share("parity.xor_share", "parity.xor");
  share("parity.pq_share", "parity.pq");
  count("parity.xor_calls", std::llround(static_cast<double>(xor_n) / n_traced));
  count("parity.pq_calls", std::llround(static_cast<double>(pq_n) / n_traced));
  out->Metric("parity.gb_per_s",
              Ratio(n_traced *
                        static_cast<double>(c.source_bytes +
                                            c.rebuild_source_bytes) /
                        (kMiB * 1024.0),
                    xor_s + pq_s),
              "GB/s", samples);

  share("rebuild.share", "rebuild");
  out->Metric("rebuild.mb_per_s", base.MedianOf([](const Drill& d) {
                return Ratio(static_cast<double>(d.counts.rebuild_tracks) *
                                 kBlockMiB,
                             d.rebuild_s);
              }),
              "MB/s", static_cast<int64_t>(base.drills.size()));
  out->Metric("rebuild.source_mb_per_s",
              Ratio(n_traced * static_cast<double>(c.rebuild_source_bytes) /
                        kMiB,
                    scope("rebuild/reconstruct").first),
              "MB/s", samples);
  out->Metric("rebuild.tracks_per_cycle",
              Ratio(static_cast<double>(c.rebuild_sim_tracks),
                    static_cast<double>(c.rebuild_cycles)),
              "tracks/cycle", 1);
  count("rebuild.stalled_cycles", c.rebuild_stalled);
  out->Metric("rebuild.window_sim_s",
              static_cast<double>(c.rebuild_window_us) * 1e-6, "sim_s", 1);

  share("sim.share", "sim");
  count("sim.events", c.sim_events);
  share("telemetry.share", "telemetry");
  count("telemetry.publishes", c.publishes);

  // Mean wall per cycle with every sink off, and what the sinks add.
  const auto per_cycle_s = [](const Leg& leg) {
    return Ratio(leg.SumOf([](const Drill& d) { return d.loop_s(); }),
                 leg.SumOf([](const Drill& d) {
                   return static_cast<double>(d.cycle_load.size());
                 }));
  };
  const Leg& off = sinks_off.drills.empty() ? base : sinks_off;
  out->Metric("obs.sinks_off_cycle_us", per_cycle_s(off) * 1e6, "us",
              static_cast<int64_t>(off.drills.size()));
  out->Metric("obs.sink_overhead",
              sinks_off.drills.empty()
                  ? 0.0
                  : Ratio(per_cycle_s(base), per_cycle_s(sinks_off)) - 1,
              "ratio", static_cast<int64_t>(off.drills.size()));

  share("bench.share", "bench");
  out->Metric("bench.verify_share",
              Ratio(scope("bench/verify").first, loop_s), "ratio", samples);

  out->Metric("trace.coverage", Ratio(tracer.top_level_s(), loop_s),
              "ratio", samples);
  const auto wall = [](const Drill& d) { return d.loop_wall_s; };
  out->Metric("trace.overhead",
              Ratio(traced.MedianOf(wall), base.MedianOf(wall)) - 1, "ratio",
              samples);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) return Usage();
  const bool traced = !args.trace.empty();
  const Clock::time_point run_start = Clock::now();
  const auto deadline = [&](double share) {
    return run_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds * share));
  };

  // Lazy process-wide set-up, forced before any timing: kernel selection
  // (pinned through FTMS_XOR_KERNEL / FTMS_PQ_KERNEL) and the shared
  // worker pool (FTMS_THREADS).
  const Clock::time_point once_start = Clock::now();
  ActiveXorKernel();
  ActivePqKernel();
  ThreadPool::Shared();
  const double once_s = SecondsSince(once_start);

  DrillOptions options;
  options.seed = args.seed;
  options.scale = args.scale > 0 ? args.scale : workload->default_scale;
  std::vector<std::string> errors;
  Leg base;
  Leg traced_leg;
  Leg sinks_off;
  Tracer tracer;
  // A traced run splits its time: untraced drills (the overhead base),
  // traced drills, and for a workload with sinks a leg with them off.
  const double base_share = traced ? 0.4 : 1.0;
  Status status = Status::Ok();
  if (args.drills == 0) {
    // The first drill of a process pays for heap growth and cold caches.
    Drill warm_up;
    status = workload->run(options, &warm_up);
  }
  if (status.ok()) {
    status = RunLeg(*workload, options, deadline(base_share),
                    traced ? 2 : 3, args.drills, &base);
  }
  if (status.ok() && traced) {
    DrillOptions traced_options = options;
    traced_options.tracer = &tracer;
    status = RunLeg(*workload, traced_options,
                    deadline(workload->has_sinks ? 0.8 : 1.0), 2, args.drills,
                    &traced_leg);
    if (status.ok() && workload->has_sinks) {
      DrillOptions off_options = options;
      off_options.sinks = false;
      status = RunLeg(*workload, off_options, deadline(1.0), 1, args.drills,
                      &sinks_off);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", status.ToString().c_str());
    return 1;
  }

  CheckRepeatable(base, "untraced", &errors);
  CheckRepeatable(traced_leg, "traced", &errors);
  CheckRepeatable(sinks_off, "sinks-off", &errors);
  if (!traced_leg.drills.empty() &&
      !(traced_leg.drills.front().counts == base.drills.front().counts)) {
    errors.push_back("tracing changed the drill's counts");
  }
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Leg* leg : {&base, &traced_leg, &sinks_off}) {
    for (const Drill& d : leg->drills) {
      const Counts& c = d.counts;
      attempted += c.tracks_due + c.starts;
      failed += c.mismatches + c.datapath_failures + c.rebuild_mismatches +
                c.unexpected_errors;
      for (const std::string& e : d.errors) {
        if (errors.size() < 16) errors.push_back(e);
      }
    }
  }
  if (failed > 0) {
    const Counts& c = base.drills.front().counts;
    errors.push_back("per drill: " + std::to_string(c.mismatches) +
                     " byte mismatches, " +
                     std::to_string(c.datapath_failures) +
                     " datapath failures, " +
                     std::to_string(c.rebuild_mismatches) +
                     " rebuild mismatches, " +
                     std::to_string(c.unexpected_errors) + " API errors");
  }

  JsonOut out;
  out.String("workload", workload->name);
  out.Int("seed", static_cast<int64_t>(args.seed));
  out.Number("scale", options.scale);
  out.Number("seconds", args.seconds);
  out.Open("env");
  out.Int("threads", ThreadPool::DefaultThreadCount());
  out.Int("nproc", std::thread::hardware_concurrency());
  out.String("xor_kernel", ActiveXorKernelName());
  out.String("pq_kernel", ActivePqKernelName());
  out.String("event_queue",
             EventQueueKindFromEnv() == EventQueueKind::kHeap ? "heap"
                                                              : "calendar");
  out.Close();
  out.Int("drills", static_cast<int64_t>(base.drills.size()));
  out.Number("wall_s", SecondsSince(run_start));
  out.Open("counts");
#define FTMS_E2E_EMIT(name) out.Int(#name, base.drills.front().counts.name);
  FTMS_E2E_COUNTS(FTMS_E2E_EMIT)
#undef FTMS_E2E_EMIT
  out.Close();
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Open("metrics");
  EndToEndMetrics(base, once_s, &out);
  if (traced) {
    const Profiler::MergedNode tree = Profiler::MergedTree();
    const LayerTable layers =
        FoldLayers(tree, traced_leg.SumOf([](const Drill& d) {
          return static_cast<double>(d.counts.publishes);
        }));
    PerLayerMetrics(base, traced_leg, sinks_off, tracer, tree, layers, &out);
    const double loop_s =
        traced_leg.SumOf([](const Drill& d) { return d.loop_wall_s; });
    const double coverage = Ratio(tracer.top_level_s(), loop_s);
    if (coverage < kMinCoverage) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "trace coverage %.3f below %.2f",
                    coverage, kMinCoverage);
      errors.push_back(buf);
    }
    status = WriteTrace(args.trace, tracer, layers, loop_s);
    if (!status.ok()) errors.push_back(status.ToString());
  }
  out.Close();
  out.Strings("errors", errors);
  out.Bool("correct", errors.empty());
  std::printf("%s\n", out.Finish().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ftms::e2e

int main(int argc, char** argv) { return ftms::e2e::Main(argc, argv); }
