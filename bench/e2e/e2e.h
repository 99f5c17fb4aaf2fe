// End-to-end fail -> degrade -> rebuild benchmark: shared types.
//
// A run repeats one workload's drill (set-up, measured phases, teardown)
// on identical seeded inputs until its time budget is spent; every drill
// must produce identical deterministic counts. See README.md.

#ifndef FTMS_BENCH_E2E_E2E_H_
#define FTMS_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/profiler.h"
#include "util/status.h"

namespace ftms::e2e {

using Clock = std::chrono::steady_clock;

// One Table-1 track (B = 50 KB) of real bytes.
inline constexpr size_t kBlockBytes = 50 * 1024;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Deterministic per-drill counts: a pure function of (workload, seed,
// scale), identical at any FTMS_THREADS and with either event queue.
#define FTMS_E2E_COUNTS(X)                                                  \
  X(cycles)              /* measured scheduling cycles */                   \
  X(tracks_due)          /* track deliveries due to viewers */              \
  X(tracks_ontime)       /* ... delivered on time */                        \
  X(hiccups)             /* ... missed (scheduler hiccups) */               \
  X(sched_reads)         /* data + parity disk reads issued */              \
  X(dropped_reads)       /* reads displaced for lack of a slot */           \
  X(sched_reconstructed) /* tracks the scheduler served from parity */      \
  X(slots_used)          /* disk read slots used, summed over cycles */     \
  X(slots_offered)       /* disk read slots available, likewise */          \
  X(buffer_peak)         /* peak buffer-pool tracks (summed per server) */  \
  X(direct_reads)        /* on-time tracks read from a live disk */         \
  X(reconstructed_reads) /* on-time tracks rebuilt from parity */           \
  X(source_bytes)        /* survivor bytes those reconstructions read */    \
  X(sampled_checks)      /* direct reads byte-compared (1 in 16) */         \
  X(mismatches)          /* byte mismatches against ground truth */        \
  X(datapath_failures)   /* on-time tracks the datapath could not read */   \
  X(rebuilds)            /* rebuilds run to completion */                   \
  X(rebuild_cycles)      /* cycles with a rebuild active */                 \
  X(rebuild_stalled)     /* ... that regenerated nothing */                 \
  X(rebuild_window_us)   /* simulated time from StartRebuild to repair */   \
  X(rebuild_sim_tracks)  /* spare tracks regenerated (whole disk) */        \
  X(rebuild_tracks)      /* object tracks regenerated as real bytes */      \
  X(rebuild_source_bytes) /* survivor bytes those regenerations read */     \
  X(rebuild_mismatches)  /* RebuildManager::data_mismatches() */            \
  X(starts)              /* StartStream calls */                            \
  X(admitted)            /* ... admitted */                                 \
  X(rejected)            /* ... refused by admission control */             \
  X(stops)               /* StopStream calls */                             \
  X(pauses)              /* PauseStream calls */                            \
  X(resumes)             /* ResumeStream calls */                           \
  X(disk_failures)       /* FailDisk calls */                               \
  X(repairs)             /* RepairDisk calls and completed rebuilds */      \
  X(sim_events)          /* discrete events the Simulator processed */      \
  X(journal_events)      /* QoS journal events appended */                  \
  X(publishes)           /* telemetry snapshots published */                \
  X(unexpected_errors)   /* API calls that failed where they must not */

struct Counts {
#define FTMS_E2E_FIELD(name) int64_t name = 0;
  FTMS_E2E_COUNTS(FTMS_E2E_FIELD)
#undef FTMS_E2E_FIELD

  friend bool operator==(const Counts&, const Counts&) = default;
};

// In-memory span recorder for traced drills. Each span wraps one public
// call (or one phase of the benchmark's own bookkeeping) and doubles as a
// profiler scope, so the FTMS_PROF scopes inside the library nest under
// it. A span's name is "<layer>/<what>"; see LayerOf in trace.cc.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a top-level span
    int64_t cycle;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
    Profiler::Node* node_ = nullptr;
    Clock::time_point start_{};
  };

  void set_cycle(int64_t cycle) { cycle_ = cycle; }
  // Spans are kept for the first traced drill only (the file stays
  // small); top-level time is summed over every drill for coverage.
  void set_keep_spans(bool keep) { keep_spans_ = keep; }
  const std::vector<Span>& spans() const { return spans_; }
  double top_level_s() const { return top_level_s_; }

 private:
  int64_t NowNs() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int32_t open_ = -1;  // innermost open span when kept
  int depth_ = 0;
  bool keep_spans_ = true;
  int64_t cycle_ = 0;
  double top_level_s_ = 0;
};

// Wraps the enclosing block in a span when `tracer` is non-null; one
// untaken branch otherwise.
#define FTMS_E2E_SPAN_CAT2(a, b) a##b
#define FTMS_E2E_SPAN_CAT(a, b) FTMS_E2E_SPAN_CAT2(a, b)
#define FTMS_E2E_SPAN(tracer, name) \
  ::ftms::e2e::Tracer::Scope FTMS_E2E_SPAN_CAT(e2e_span_, __LINE__)(tracer, name)

// Wall-clock measurements of one drill.
struct Drill {
  Counts counts;
  double setup_s = 0;      // server build + population ramp
  double loop_wall_s = 0;  // measured phases, verification included
  double verify_s = 0;     // the benchmark's byte verification in them
  double rebuild_s = 0;    // rebuild phases, verification excluded
  double start_s = 0;      // inside StartStream
  double stop_s = 0;       // inside StopStream
  std::vector<double> cycle_load;  // per measured cycle: wall / simulated
  std::vector<std::string> errors;  // correctness violations

  double loop_s() const { return loop_wall_s - verify_s; }
};

struct DrillOptions {
  uint64_t seed = 1;
  double scale = 1.0;
  // Observability sinks (vod_churn_observed only): off gives the leg the
  // sink overhead is measured against.
  bool sinks = true;
  Tracer* tracer = nullptr;  // null = untraced
};

using DrillFn = Status (*)(const DrillOptions& options, Drill* drill);

struct Workload {
  std::string_view name;
  DrillFn run;
  double default_scale;  // a drill takes well under a second at this scale
  bool has_sinks;
};

// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

// Traced-run summary: per-layer self time folded from the profiler tree.
struct LayerTable {
  std::vector<std::pair<std::string, double>> self_s;  // layer -> seconds
  double Get(std::string_view layer) const;
  void Add(std::string_view layer, double seconds);
};

// Folds the traced drills' profiler tree into the fixed layer table.
// `publishes` is how many telemetry snapshots RunCycles published in them.
LayerTable FoldLayers(const Profiler::MergedNode& root, double publishes);

// Total wall and call count of every profiler node named `name`.
void ScopeTotals(const Profiler::MergedNode& root, std::string_view name,
                 double* total_s, int64_t* count);

// Writes the kept spans and the layer table as JSON.
Status WriteTrace(const std::string& path, const Tracer& tracer,
                  const LayerTable& layers, double loop_s);

}  // namespace ftms::e2e

#endif  // FTMS_BENCH_E2E_E2E_H_
