#include "util/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "util/json.h"

namespace ftms {

namespace {

std::atomic<int> g_global_enabled{-1};  // -1 = not yet resolved from env

bool ResolveGlobalEnabledFromEnv() {
  const char* env = std::getenv("FTMS_METRICS");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

// Family name of a sample: everything before the label block.
std::string_view FamilyOf(std::string_view name) {
  const size_t brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

// Splices `suffix` into a sample name before its label block:
// ("h{d=\"1\"}", "_sum") -> "h_sum{d=\"1\"}".
std::string WithSuffix(const std::string& name, const char* suffix) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}

// Adds one label to a sample name: ("h{d=\"1\"}", "le", "2") ->
// "h{d=\"1\",le=\"2\"}".
std::string WithLabel(const std::string& name, const char* key,
                      const std::string& value) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    return name + "{" + key + "=\"" + value + "\"}";
  }
  std::string out = name.substr(0, name.size() - 1);
  out += ",";
  out += key;
  out += "=\"";
  out += value;
  out += "\"}";
  return out;
}

std::string FormatEdge(double v) {
  std::string s;
  AppendTextNumber(&s, v, 9);
  return s;
}

}  // namespace

HistogramCell::HistogramCell(double lo, double hi, int num_buckets)
    : lo_(lo), hi_(hi), buckets_(static_cast<size_t>(num_buckets)) {
  assert(hi > lo);
  assert(num_buckets > 0);
  width_ = (hi - lo) / num_buckets;
}

void HistogramCell::Add(double x) {
  int idx = static_cast<int>((x - lo_) / width_);
  idx = std::clamp(idx, 0, static_cast<int>(buckets_.size()) - 1);
  buckets_[static_cast<size_t>(idx)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

double HistogramCell::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const int64_t b = buckets_[i].load(std::memory_order_relaxed);
    const double next = cum + static_cast<double>(b);
    if (next >= target) {
      const double frac =
          b > 0 ? (target - cum) / static_cast<double>(b) : 0.0;
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cum = next;
  }
  return hi_;
}

std::string LabeledName(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(family);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
  return out;
}

std::string IndexedName(std::string_view family, std::string_view label_key,
                        int index) {
  return LabeledName(family, {{label_key, std::to_string(index)}});
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

bool MetricsRegistry::GlobalEnabled() {
  int state = g_global_enabled.load(std::memory_order_acquire);
  if (state < 0) {
    state = ResolveGlobalEnabledFromEnv() ? 1 : 0;
    g_global_enabled.store(state, std::memory_order_release);
  }
  return state == 1;
}

void MetricsRegistry::SetGlobalEnabled(bool enabled) {
  g_global_enabled.store(enabled ? 1 : 0, std::memory_order_release);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricKind::kCounter;
    it->second.help = help;
    it->second.counter = std::make_unique<Counter>();
  }
  if (it->second.kind != MetricKind::kCounter) return nullptr;
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricKind::kGauge;
    it->second.help = help;
    it->second.gauge = std::make_unique<Gauge>();
  }
  if (it->second.kind != MetricKind::kGauge) return nullptr;
  return it->second.gauge.get();
}

HistogramCell* MetricsRegistry::GetHistogram(const std::string& name,
                                             double lo, double hi,
                                             int num_buckets,
                                             std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricKind::kHistogram;
    it->second.help = help;
    it->second.histogram =
        std::make_unique<HistogramCell>(lo, hi, num_buckets);
  }
  if (it->second.kind != MetricKind::kHistogram) return nullptr;
  return it->second.histogram.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != MetricKind::kCounter) {
    return nullptr;
  }
  return it->second.counter.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != MetricKind::kGauge) {
    return nullptr;
  }
  return it->second.gauge.get();
}

const HistogramCell* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != MetricKind::kHistogram) {
    return nullptr;
  }
  return it->second.histogram.get();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const auto family_head = [&out](std::string_view family,
                                  std::string_view help,
                                  std::string_view kind) {
    if (!help.empty()) {
      out.append("# HELP ").append(family).append(" ").append(help);
      out += '\n';
    }
    out.append("# TYPE ").append(family).append(" ").append(kind);
    out += '\n';
  };
  const auto sample = [&out](std::string_view name, double value) {
    out.append(name).append(" ");
    AppendTextNumber(&out, value, 9);
    out += '\n';
  };
  std::string_view last_family;
  // Histogram quantile summaries, grouped by suffixed family so each
  // emits exactly one HELP and TYPE line (they are separate gauge
  // families and must not appear under the histogram family's TYPE).
  struct QuantileFamily {
    std::string help;  // the histogram's, with the quantile appended
    std::vector<std::pair<std::string, double>> samples;
  };
  std::map<std::string, QuantileFamily> quantile_families;
  for (const auto& [name, metric] : metrics_) {
    const std::string_view family = FamilyOf(name);
    if (family != last_family) {
      last_family = family;
      family_head(family, metric.help, KindName(metric.kind));
    }
    switch (metric.kind) {
      case MetricKind::kCounter:
        sample(name, static_cast<double>(metric.counter->value()));
        break;
      case MetricKind::kGauge:
        sample(name, metric.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const HistogramCell& h = *metric.histogram;
        const std::string bucket = WithSuffix(name, "_bucket");
        int64_t cum = 0;
        for (int i = 0; i < h.num_buckets(); ++i) {
          cum += h.bucket(i);
          sample(WithLabel(bucket, "le", FormatEdge(h.bucket_upper(i))),
                 static_cast<double>(cum));
        }
        sample(WithLabel(bucket, "le", "+Inf"), static_cast<double>(h.count()));
        sample(WithSuffix(name, "_sum"), h.sum());
        sample(WithSuffix(name, "_count"), static_cast<double>(h.count()));
        for (const auto& [suffix, q] :
             {std::pair<const char*, double>{"_p50", 0.5},
              {"_p90", 0.9},
              {"_p99", 0.99}}) {
          const std::string quantile = WithSuffix(name, suffix);
          QuantileFamily& qf =
              quantile_families[std::string(FamilyOf(quantile))];
          if (qf.samples.empty() && !metric.help.empty()) {
            qf.help = metric.help + " (" + (suffix + 1) + ")";
          }
          qf.samples.emplace_back(quantile, h.Quantile(q));
        }
        break;
      }
    }
  }
  for (const auto& [family, qf] : quantile_families) {
    family_head(family, qf.help, "gauge");
    for (const auto& [name, value] : qf.samples) sample(name, value);
  }
  return out;
}

std::string MetricsRegistry::JsonObject(const std::string& indent,
                                        const std::string& close_indent)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  const auto emit = [&](const std::string& key, double value) {
    out += first ? "\n" : ",\n";
    first = false;
    out += indent;
    // Series names carry Prometheus label syntax ({k="v"}).
    AppendJsonString(&out, key);
    out += ": ";
    AppendJsonNumber(&out, value, 9);
  };
  for (const auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case MetricKind::kCounter:
        emit(name, static_cast<double>(metric.counter->value()));
        break;
      case MetricKind::kGauge:
        emit(name, metric.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const HistogramCell& h = *metric.histogram;
        emit(WithSuffix(name, "_count"), static_cast<double>(h.count()));
        emit(WithSuffix(name, "_sum"), h.sum());
        emit(WithSuffix(name, "_p50"), h.Quantile(0.5));
        emit(WithSuffix(name, "_p90"), h.Quantile(0.9));
        emit(WithSuffix(name, "_p99"), h.Quantile(0.99));
        break;
      }
    }
  }
  out += first ? "}" : "\n" + close_indent + "}";
  return out;
}

Status MetricsRegistry::WritePrometheusFile(const std::string& path) const {
  return WriteTextFile(path, PrometheusText());
}

}  // namespace ftms
