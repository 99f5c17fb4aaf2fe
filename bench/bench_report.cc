#include "bench/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "parity/pq_kernels.h"
#include "qos/event_journal.h"
#include "qos/run_report.h"
#include "sim/event_queue.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/thread_pool.h"
#include "util/timeseries.h"

namespace ftms::bench {

void Reporter::Set(const std::string& key, double value) {
  for (auto& [k, v] : metrics_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(key, value);
}

std::string Reporter::WriteJson() const {
  if (const char* enabled = std::getenv("FTMS_BENCH_JSON")) {
    if (std::strcmp(enabled, "0") == 0) return "";
  }
  std::string dir = ".";
  if (const char* env_dir = std::getenv("FTMS_BENCH_JSON_DIR")) {
    if (env_dir[0] != '\0') dir = env_dir;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";

  MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled();
  EventJournal* journal = EventJournal::GlobalIfEnabled();
  TimeSeriesRecorder* timeseries = TimeSeriesRecorder::GlobalIfEnabled();
  const bool prof = Profiler::GlobalEnabled();
  // Writing a report is a serial point: fold worker scope trees first so
  // the embedded profile sees everything.
  if (prof) Profiler::FoldAtSyncPoint();

  std::string json = "{\n  \"bench\": ";
  AppendJsonString(&json, name_);
  json += ",\n";
  json += "  \"schema_version\": " + std::to_string(kSchemaVersion) + ",\n";
  // Environment stamp: anything that changes what the timings mean.
  json += "  \"env\": {\n";
  json += "    \"threads\": " +
          std::to_string(ThreadPool::DefaultThreadCount()) + ",\n";
  json += std::string("    \"metrics_enabled\": ") +
          (registry != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"qos_enabled\": ") +
          (journal != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"prof_enabled\": ") + (prof ? "true" : "false") +
          ",\n";
  json += std::string("    \"timeseries_enabled\": ") +
          (timeseries != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"pq_kernel\": \"") + ActivePqKernelName() +
          "\",\n";
  json += std::string("    \"event_queue\": \"") +
          (EventQueueKindFromEnv() == EventQueueKind::kHeap ? "heap"
                                                            : "calendar") +
          "\"\n";
  json += "  },\n";
  json += "  \"metrics\": {\n";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += "    ";
    AppendJsonString(&json, metrics_[i].first);
    json += ": ";
    AppendJsonNumber(&json, metrics_[i].second, 6);
    json += i + 1 < metrics_.size() ? ",\n" : "\n";
  }
  json += "  }";
  if (registry != nullptr) {
    json += ",\n  \"registry\": ";
    json += registry->JsonObject("    ", "  ");
  }
  if (journal != nullptr) {
    json += ",\n  \"qos\": ";
    json += journal->StatsJson("    ", "  ");
  }
  if (prof) {
    json += ",\n  \"profile\": ";
    json += Profiler::SnapshotJson();
  }
  if (timeseries != nullptr) {
    json += ",\n  \"timeseries\": ";
    json += timeseries->SummaryJson("    ", "  ");
  }
  json += "\n}\n";

  if (!WriteTextFile(path, json).ok()) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    return "";
  }
  std::printf("wrote %s\n", path.c_str());

  WriteRunDumps({.metrics = registry,
                 .journal = journal,
                 .profile = prof,
                 .timeseries = timeseries},
                stdout);
  return path;
}

}  // namespace ftms::bench
