// Span recording and the fixed layer table of the traced run.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/e2e/e2e.h"

namespace ftms::e2e {
namespace {

// Layers of the table, named after the modules under src/ (plus "bench",
// the benchmark's own bookkeeping and verification).
constexpr std::string_view kLayers[] = {
    "server", "sched", "qos",  "rebuild",   "verify", "parity.xor",
    "parity.pq", "sim", "stream", "telemetry", "bench"};

// Layer a span or library profiler scope belongs to: its name's prefix,
// except the scopes that sit in another module's file. Empty for an
// unknown name, whose self time then stays with its parent's layer.
std::string_view LayerOf(std::string_view scope) {
  if (scope == "sched/qos") return "qos";
  if (scope == "parity/xor") return "parity.xor";
  if (scope == "parity/pq") return "parity.pq";
  const std::string_view prefix = scope.substr(0, scope.find('/'));
  for (const std::string_view layer : kLayers) {
    if (prefix == layer) return layer;
  }
  return {};
}

void Fold(const Profiler::MergedNode& node, std::string_view inherited,
          LayerTable* table) {
  std::string_view layer = LayerOf(node.name);
  if (layer.empty()) layer = inherited;
  int64_t self_ns = node.total_ns;
  for (const Profiler::MergedNode& child : node.children) {
    self_ns -= child.total_ns;
    Fold(child, layer, table);
  }
  table->Add(layer, static_cast<double>(self_ns) * 1e-9);
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  if (Profiler::GlobalEnabled()) node_ = Profiler::Enter(name);
  start_ = Clock::now();
  if (tracer_->keep_spans_) {
    index_ = static_cast<int32_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(
        Span{name, tracer_->NowNs(), 0, tracer_->open_, tracer_->cycle_});
    tracer_->open_ = index_;
  }
  ++tracer_->depth_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  if (node_ != nullptr) {
    Profiler::Exit(node_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                              end - start_)
                              .count());
  }
  if (index_ >= 0) {
    Span& span = tracer_->spans_[static_cast<size_t>(index_)];
    span.end_ns = tracer_->NowNs();
    tracer_->open_ = span.parent;
  }
  if (--tracer_->depth_ == 0) {
    tracer_->top_level_s_ += std::chrono::duration<double>(end - start_).count();
  }
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

double LayerTable::Get(std::string_view layer) const {
  for (const auto& [name, seconds] : self_s) {
    if (name == layer) return seconds;
  }
  return 0;
}

void LayerTable::Add(std::string_view layer, double seconds) {
  for (auto& [name, total] : self_s) {
    if (name == layer) total += seconds;
  }
}

LayerTable FoldLayers(const Profiler::MergedNode& root, double publishes) {
  LayerTable table;
  for (const std::string_view layer : kLayers) {
    table.self_s.emplace_back(std::string(layer), 0.0);
  }
  // Everything the profiler saw ran inside one of the benchmark's spans,
  // so a top-level scope with an unknown name is the benchmark's own.
  for (const Profiler::MergedNode& top : root.children) {
    Fold(top, "bench", &table);
  }
  // The publication inside RunCycles has no scope of its own: move its
  // cost, estimated from the sampled direct calls, from server to
  // telemetry.
  double sampled_s = 0;
  int64_t sampled = 0;
  ScopeTotals(root, "telemetry/publish", &sampled_s, &sampled);
  if (sampled > 0) {
    const double moved = std::min(
        table.Get("server"), sampled_s / static_cast<double>(sampled) *
                                 publishes);
    table.Add("server", -moved);
    table.Add("telemetry", moved);
  }
  return table;
}

void ScopeTotals(const Profiler::MergedNode& root, std::string_view name,
                 double* total_s, int64_t* count) {
  if (root.name == name) {
    *total_s += static_cast<double>(root.total_ns) * 1e-9;
    *count += root.count;
  }
  for (const Profiler::MergedNode& child : root.children) {
    ScopeTotals(child, name, total_s, count);
  }
}

Status WriteTrace(const std::string& path, const Tracer& tracer,
                  const LayerTable& layers, double loop_s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Unavailable("cannot open " + path);
  std::fprintf(f, "{\"loop_s\": %.9f,\n \"layers\": {", loop_s);
  const char* sep = "";
  for (const auto& [name, seconds] : layers.self_s) {
    std::fprintf(f, "%s\"%s\": %.9f", sep, name.c_str(), seconds);
    sep = ", ";
  }
  std::fprintf(f, "},\n \"spans\": [");
  sep = "\n  ";
  for (const Tracer::Span& span : tracer.spans()) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"cycle\": %lld}",
                 sep, span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.cycle));
    sep = ",\n  ";
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok ? Status::Ok()
                                   : Status::Unavailable("short write to " +
                                                         path);
}

}  // namespace ftms::e2e
