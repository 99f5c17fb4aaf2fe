#include "bench/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "parity/pq_kernels.h"
#include "parity/xor_kernels.h"
#include "qos/event_journal.h"
#include "sim/event_queue.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/thread_pool.h"
#include "util/timeseries.h"
#include "util/trace_event.h"

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
  Tracer* tracer = Tracer::GlobalIfEnabled();
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
  json += std::string("    \"trace_enabled\": ") +
          (tracer != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"qos_enabled\": ") +
          (journal != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"prof_enabled\": ") + (prof ? "true" : "false") +
          ",\n";
  json += std::string("    \"timeseries_enabled\": ") +
          (timeseries != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"xor_kernel\": \"") + ActiveXorKernelName() +
          "\",\n";
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

  if (registry != nullptr) {
    if (const char* out = std::getenv("FTMS_METRICS_OUT")) {
      if (out[0] != '\0' && registry->WritePrometheusFile(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (tracer != nullptr) {
    if (const char* out = std::getenv("FTMS_TRACE_OUT")) {
      if (out[0] != '\0' && tracer->WriteChromeJson(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (journal != nullptr) {
    if (const char* out = std::getenv("FTMS_QOS_OUT")) {
      if (out[0] != '\0' && journal->WriteJsonl(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (prof) {
    if (const char* out = std::getenv("FTMS_PROF_OUT")) {
      if (out[0] != '\0' && Profiler::WriteJson(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (timeseries != nullptr) {
    if (const char* out = std::getenv("FTMS_TIMESERIES_OUT")) {
      if (out[0] != '\0' && timeseries->WriteJson(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
    if (const char* out = std::getenv("FTMS_TIMESERIES_CSV")) {
      if (out[0] != '\0' && timeseries->WriteCsv(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  return path;
}

}  // namespace ftms::bench
