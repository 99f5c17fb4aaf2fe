#ifndef FTMS_BENCH_BENCH_REPORT_H_
#define FTMS_BENCH_BENCH_REPORT_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace ftms::bench {

// Wall-clock stopwatch for the perf-trajectory reports.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Machine-readable perf snapshot: each bench collects a flat set of
// scalar metrics (wall time, trials/sec, cycles/sec, ...) and writes
// BENCH_<name>.json so successive PRs can be compared with
// tools/bench_diff.py.
//
// Schema version 2 added an "env" stamp (worker threads, whether the
// metrics registry was enabled — it skews timings) and, when
// the global registry is live, a full "registry" block of its metrics so
// the perf numbers and the observability counters land in one artifact.
// (Older snapshots also carry a "trace_enabled" stamp from a since-deleted
// timeline tracer; nothing reads it.)
// Schema version 3 adds "qos_enabled" to the env stamp and, when the QoS
// journal is live (FTMS_QOS=1), a "qos" block of per-kind journal event
// counts. bench_diff.py refuses to compare across schema versions.
// Still within v3 (additive keys, old readers unaffected), the env stamp
// also carries "pq_kernel" — the dispatched parity kernel
// (parity/pq_kernels.h), which runs both the XOR and the P+Q fold and so
// changes every parity-heavy timing (some committed snapshots also carry
// an "xor_kernel" key, which nothing reads) — and "event_queue", the
// FTMS_EVENT_QUEUE selection (heap | calendar) driving the discrete-event
// engine, which changes what simulator-bound timings mean.
// Schema version 4 adds "prof_enabled" / "timeseries_enabled" to the env
// stamp (both skew timings when on) and two optional blocks: "profile"
// (the hierarchical wall-clock scope tree, when FTMS_PROF=1) and
// "timeseries" (the recorder's per-series summary, when
// FTMS_TIMESERIES=1). bench_diff.py diffs the profile tree node-by-node
// and uses it to attribute guarded-metric regressions to subsystems.
//
// Environment knobs:
//   FTMS_BENCH_JSON=0        disable writing entirely
//   FTMS_BENCH_JSON_DIR=dir  target directory (default: current dir)
//   FTMS_METRICS_OUT=path    also export the global registry as
//                            Prometheus text to `path`
//   FTMS_QOS_OUT=path        also export the global QoS journal as
//                            JSONL to `path`
//   FTMS_PROF_OUT=path       also export the profiler tree as JSON to
//                            `path`
//   FTMS_TIMESERIES_OUT=path also export the time-series recorder as
//                            JSON to `path` (FTMS_TIMESERIES_CSV=path
//                            for the CSV flattening)
class Reporter {
 public:
  explicit Reporter(std::string name) : name_(std::move(name)) {}

  // Records (or overwrites) one scalar metric. Insertion order is kept in
  // the JSON output so the files diff cleanly run-to-run.
  void Set(const std::string& key, double value);

  // Writes BENCH_<name>.json and returns its path; returns "" when
  // disabled via FTMS_BENCH_JSON=0 or when the file cannot be written.
  // Also prints a one-line "wrote ..." notice on success, and honors the
  // FTMS_*_OUT exports of the sinks that are live (see WriteRunDumps).
  std::string WriteJson() const;

  const std::string& name() const { return name_; }

  // The bench report schema emitted by WriteJson().
  static constexpr int kSchemaVersion = 4;

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace ftms::bench

#endif  // FTMS_BENCH_BENCH_REPORT_H_
