#include "qos/qos_ledger.h"

#include <algorithm>
#include <cmath>

#include "util/json.h"
#include "util/timeseries.h"

namespace ftms {

namespace {

const char* StateName(StreamState state) {
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

// p99 of admission-to-first-delivery latencies (nearest-rank on a sorted
// copy); 0 when no stream has started delivering yet.
double StartupP99(const std::vector<StreamQosRecord>& records) {
  std::vector<int64_t> latencies;
  latencies.reserve(records.size());
  for (const StreamQosRecord& r : records) {
    if (r.startup_cycles >= 0) latencies.push_back(r.startup_cycles);
  }
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const size_t rank = static_cast<size_t>(std::ceil(
      0.99 * static_cast<double>(latencies.size())));
  return static_cast<double>(latencies[std::min(latencies.size(), rank) - 1]);
}

}  // namespace

std::vector<StreamQosRecord> CaptureStreamQos(
    std::span<const std::unique_ptr<Stream>> streams,
    std::span<const int64_t> degraded_cycles) {
  std::vector<StreamQosRecord> records;
  records.reserve(streams.size());
  for (const auto& stream : streams) {
    StreamQosRecord r;
    r.id = stream->id();
    r.state = stream->state();
    r.admitted_cycle = stream->admitted_cycle();
    r.first_delivered_cycle = stream->first_delivered_cycle();
    r.startup_cycles = r.first_delivered_cycle >= 0
                           ? r.first_delivered_cycle - r.admitted_cycle
                           : -1;
    r.delivered = stream->delivered_tracks();
    r.hiccups = stream->hiccup_count();
    if (r.id >= 0 && static_cast<size_t>(r.id) < degraded_cycles.size()) {
      r.degraded_cycles = degraded_cycles[static_cast<size_t>(r.id)];
    }
    const int64_t due = r.delivered + r.hiccups;
    r.continuity = due > 0 ? static_cast<double>(r.delivered) /
                                 static_cast<double>(due)
                           : 1.0;
    records.push_back(r);
  }
  return records;
}

std::vector<SloStatus> EvaluateSlos(
    const std::vector<StreamQosRecord>& records,
    const std::vector<SloSpec>& slos, int64_t failures) {
  const double failure_scale = static_cast<double>(std::max<int64_t>(
      1, failures));
  std::vector<SloStatus> out;
  out.reserve(slos.size());
  for (const SloSpec& spec : slos) {
    SloStatus status;
    status.spec = spec;
    status.effective_bound =
        spec.per_failure ? spec.bound * failure_scale : spec.bound;
    switch (spec.kind) {
      case SloKind::kMaxHiccupsPerStream: {
        int64_t worst = 0;
        for (const StreamQosRecord& r : records) {
          worst = std::max(worst, r.hiccups);
        }
        status.observed = static_cast<double>(worst);
        break;
      }
      case SloKind::kMaxTotalHiccups: {
        int64_t total = 0;
        for (const StreamQosRecord& r : records) total += r.hiccups;
        status.observed = static_cast<double>(total);
        break;
      }
      case SloKind::kMaxStartupP99Cycles:
        status.observed = StartupP99(records);
        break;
      case SloKind::kMinContinuity: {
        double worst = 1.0;
        for (const StreamQosRecord& r : records) {
          worst = std::min(worst, r.continuity);
        }
        status.observed = worst;
        break;
      }
    }
    if (spec.kind == SloKind::kMinContinuity) {
      status.breached = status.observed < status.effective_bound;
      const double budget = 1.0 - status.effective_bound;
      status.budget_burn =
          budget > 0 ? (1.0 - status.observed) / budget
                     : (status.breached
                            ? 1.0 + (status.effective_bound - status.observed)
                            : 0.0);
    } else {
      status.breached = status.observed > status.effective_bound;
      status.budget_burn =
          status.effective_bound > 0
              ? status.observed / status.effective_bound
              : (status.observed > 0 ? 1.0 + status.observed : 0.0);
    }
    out.push_back(status);
  }
  return out;
}

std::vector<SloSpec> DefaultSlos(Scheme scheme, int parity_group_size) {
  double per_stream_bound = 0;
  switch (scheme) {
    case Scheme::kStreamingRaid:
    case Scheme::kStaggeredGroup:
      per_stream_bound = 0;  // single failures are fully masked
      break;
    case Scheme::kStreamingRaid2:
      // P+Q keeps the whole group in memory: even TWO concurrent
      // failures per cluster are fully masked.
      per_stream_bound = 0;
      break;
    case Scheme::kImprovedBandwidth:
      per_stream_bound = 1;  // at most one isolated hiccup
      break;
    case Scheme::kNonClustered:
      // Immediate shift loses C-1-q tracks from the stream at group
      // position q >= 1: worst placed stream loses C-2.
      per_stream_bound = static_cast<double>(
          std::max(0, parity_group_size - 2));
      break;
    case Scheme::kNonClustered2:
      // Same switchover losses as NC, with one fewer data track per
      // group (C-2 data blocks): worst placed stream loses C-3.
      per_stream_bound = static_cast<double>(
          std::max(0, parity_group_size - 3));
      break;
  }
  std::vector<SloSpec> slos;
  slos.push_back({"hiccups_per_stream_per_failure",
                  SloKind::kMaxHiccupsPerStream, per_stream_bound,
                  /*per_failure=*/true});
  slos.push_back({"startup_p99_cycles", SloKind::kMaxStartupP99Cycles,
                  2.0 * static_cast<double>(parity_group_size),
                  /*per_failure=*/false});
  return slos;
}

void QosLedger::SetSlos(std::vector<SloSpec> slos) {
  slos_ = std::move(slos);
  slo_breached_.assign(slos_.size(), false);
  active_breaches_ = 0;
  burn_gauges_.clear();
  if (registry_ != nullptr) BindMetrics(registry_, metrics_scheme_);
}

void QosLedger::BindMetrics(MetricsRegistry* registry,
                            std::string_view scheme) {
  registry_ = registry;
  metrics_scheme_.assign(scheme);
  burn_gauges_.clear();
  if (registry_ == nullptr) {
    worst_hiccups_gauge_ = nullptr;
    streams_with_hiccups_gauge_ = nullptr;
    active_breaches_gauge_ = nullptr;
    degraded_stream_cycles_gauge_ = nullptr;
    breach_events_counter_ = nullptr;
    return;
  }
  const auto labeled = [&](std::string_view family) {
    return LabeledName(family, {{"scheme", metrics_scheme_}});
  };
  worst_hiccups_gauge_ =
      registry_->GetGauge(labeled("ftms_qos_worst_stream_hiccups"),
                          "hiccups on the worst single stream");
  streams_with_hiccups_gauge_ =
      registry_->GetGauge(labeled("ftms_qos_streams_with_hiccups"),
                          "streams that suffered at least one hiccup");
  active_breaches_gauge_ = registry_->GetGauge(
      labeled("ftms_qos_active_slo_breaches"), "SLOs currently breached");
  degraded_stream_cycles_gauge_ =
      registry_->GetGauge(labeled("ftms_qos_degraded_stream_cycles"),
                          "active stream-cycles spent in degraded mode");
  breach_events_counter_ = registry_->GetCounter(
      labeled("ftms_qos_slo_breach_events_total"),
      "ok-to-breached SLO transitions");
  for (const SloSpec& spec : slos_) {
    burn_gauges_.push_back(registry_->GetGauge(
        LabeledName("ftms_qos_slo_budget_burn",
                    {{"scheme", metrics_scheme_}, {"slo", spec.name}}),
        "error-budget consumed (>= 1 means breached)"));
  }
}

void QosLedger::BindTimeSeries(TimeSeriesRecorder* recorder,
                               const std::string& prefix) {
  ts_ = recorder;
  if (ts_ == nullptr) {
    ts_burn_max_ = -1;
    ts_active_breaches_ = -1;
    return;
  }
  ts_burn_max_ = ts_->DefineSeries(prefix + ".slo_burn_max");
  ts_active_breaches_ = ts_->DefineSeries(prefix + ".active_breaches");
}

void QosLedger::OnFailure(int64_t cycle, bool mid_cycle) {
  (void)cycle;
  (void)mid_cycle;
  ++failures_observed_;
}

void QosLedger::OnCycleEnd(int64_t cycle, bool degraded,
                           std::string_view scheme, int64_t sim_us,
                           std::span<const std::unique_ptr<Stream>> streams) {
  ++cycles_observed_;
  if (degraded_cycles_.size() < streams.size()) {
    degraded_cycles_.resize(streams.size(), 0);
  }
  int64_t worst = 0;
  int64_t with_hiccups = 0;
  for (const auto& stream : streams) {
    if (degraded && stream->state() == StreamState::kActive) {
      ++degraded_cycles_[static_cast<size_t>(stream->id())];
      ++degraded_stream_cycles_;
    }
    const int64_t h = stream->hiccup_count();
    worst = std::max(worst, h);
    if (h > 0) ++with_hiccups;
  }

  const std::vector<SloStatus> statuses = Evaluate(streams);
  active_breaches_ = 0;
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].breached) ++active_breaches_;
    if (statuses[i].breached && !slo_breached_[i]) {
      ++breach_events_;
      if (breach_events_counter_ != nullptr) breach_events_counter_->Add(1);
      if (journal_ != nullptr) {
        QosEvent event;
        event.kind = QosEventKind::kSloBreach;
        event.scheme = scheme;
        event.sim_us = sim_us;
        event.cycle = cycle;
        event.value = static_cast<int64_t>(i);
        journal_->Append(event);
      }
    }
    slo_breached_[i] = statuses[i].breached;
    if (i < burn_gauges_.size() && burn_gauges_[i] != nullptr) {
      burn_gauges_[i]->Set(statuses[i].budget_burn);
    }
  }
  if (worst_hiccups_gauge_ != nullptr) {
    worst_hiccups_gauge_->Set(static_cast<double>(worst));
    streams_with_hiccups_gauge_->Set(static_cast<double>(with_hiccups));
    active_breaches_gauge_->Set(static_cast<double>(active_breaches_));
    degraded_stream_cycles_gauge_->Set(
        static_cast<double>(degraded_stream_cycles_));
  }
  if (ts_ != nullptr) {
    double burn_max = 0;
    for (const SloStatus& s : statuses) {
      burn_max = std::max(burn_max, s.budget_burn);
    }
    ts_->Append(ts_burn_max_, sim_us, burn_max);
    ts_->Append(ts_active_breaches_, sim_us,
                static_cast<double>(active_breaches_));
  }
}

int64_t QosLedger::degraded_cycles(StreamId id) const {
  if (id < 0 || static_cast<size_t>(id) >= degraded_cycles_.size()) return 0;
  return degraded_cycles_[static_cast<size_t>(id)];
}

std::string QosLedger::DumpJson(
    std::span<const std::unique_ptr<Stream>> streams,
    const std::string& indent) const {
  const std::vector<StreamQosRecord> records = Capture(streams);
  const std::vector<SloStatus> statuses =
      EvaluateSlos(records, slos_, failures_observed_);
  std::string out = "{\n";
  const std::string in1 = indent;
  const std::string in2 = indent + indent;
  out += in1 + "\"cycles_observed\": ";
  AppendJsonInt(&out, cycles_observed_);
  out += ",\n" + in1 + "\"failures_observed\": ";
  AppendJsonInt(&out, failures_observed_);
  out += ",\n" + in1 + "\"degraded_stream_cycles\": ";
  AppendJsonInt(&out, degraded_stream_cycles_);
  out += ",\n" + in1 + "\"active_breaches\": ";
  AppendJsonInt(&out, active_breaches_);
  out += ",\n" + in1 + "\"breach_events\": ";
  AppendJsonInt(&out, breach_events_);
  out += ",\n" + in1 + "\"streams\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const StreamQosRecord& r = records[i];
    out += i == 0 ? "\n" : ",\n";
    out += in2 + "{\"id\": ";
    AppendJsonInt(&out, r.id);
    out += ", \"state\": \"";
    out += StateName(r.state);
    out += "\", \"admitted_cycle\": ";
    AppendJsonInt(&out, r.admitted_cycle);
    out += ", \"startup_cycles\": ";
    AppendJsonInt(&out, r.startup_cycles);
    out += ", \"delivered\": ";
    AppendJsonInt(&out, r.delivered);
    out += ", \"hiccups\": ";
    AppendJsonInt(&out, r.hiccups);
    out += ", \"degraded_cycles\": ";
    AppendJsonInt(&out, r.degraded_cycles);
    out += ", \"continuity\": ";
    AppendJsonNumber(&out, r.continuity, 9);
    out += "}";
  }
  out += records.empty() ? "]" : "\n" + in1 + "]";
  out += ",\n" + in1 + "\"slos\": [";
  for (size_t i = 0; i < statuses.size(); ++i) {
    const SloStatus& s = statuses[i];
    out += i == 0 ? "\n" : ",\n";
    out += in2 + "{\"name\": ";
    AppendJsonString(&out, s.spec.name);
    out += ", \"observed\": ";
    AppendJsonNumber(&out, s.observed, 9);
    out += ", \"bound\": ";
    AppendJsonNumber(&out, s.effective_bound, 9);
    out += ", \"budget_burn\": ";
    AppendJsonNumber(&out, s.budget_burn, 9);
    out += ", \"breached\": ";
    out += s.breached ? "true" : "false";
    out += "}";
  }
  out += statuses.empty() ? "]" : "\n" + in1 + "]";
  out += "\n}";
  return out;
}

int64_t WorstStreamHiccups(const std::vector<StreamQosRecord>& records) {
  int64_t worst = 0;
  for (const StreamQosRecord& r : records) {
    worst = std::max(worst, r.hiccups);
  }
  return worst;
}

int64_t CountBreaches(const std::vector<SloStatus>& statuses) {
  int64_t n = 0;
  for (const SloStatus& s : statuses) {
    if (s.breached) ++n;
  }
  return n;
}

}  // namespace ftms
