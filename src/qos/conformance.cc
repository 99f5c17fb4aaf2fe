#include "qos/conformance.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "layout/schemes.h"
#include "util/json.h"

namespace ftms {

namespace {

ConformanceFinding NotApplicable(std::string check, std::string why) {
  ConformanceFinding f;
  f.check = std::move(check);
  f.applicable = false;
  f.ok = true;
  f.detail = std::move(why);
  return f;
}

ConformanceFinding Checked(std::string check, double observed, double bound,
                           std::string detail) {
  ConformanceFinding f;
  f.check = std::move(check);
  f.observed = observed;
  f.bound = bound;
  f.ok = observed <= bound;
  f.detail = std::move(detail);
  return f;
}

}  // namespace

ConformanceWatchdog::ConformanceWatchdog(const CycleScheduler* scheduler,
                                         const EventJournal* journal)
    : scheduler_(scheduler), journal_(journal) {}

std::vector<ConformanceWatchdog::FailureRecord>
ConformanceWatchdog::Failures() const {
  std::vector<FailureRecord> out;
  if (journal_ == nullptr) return out;
  const std::string_view scheme =
      SchemeAbbrev(scheduler_->config().scheme);
  for (const QosEvent& e : journal_->Snapshot()) {
    if (e.kind != QosEventKind::kDiskFailed || e.scheme != scheme) continue;
    out.push_back({e.cycle, e.disk, e.value != 0});
  }
  return out;
}

bool ConformanceWatchdog::HadOverlappingFailures() const {
  if (journal_ == nullptr) return false;
  const Scheme s = scheduler_->config().scheme;
  const std::string_view scheme = SchemeAbbrev(s);
  // Single-parity bounds assume one failure at a time; the dual-parity
  // schemes are IN SPEC with two concurrent failures (P+Q repairs any
  // two erasures per cluster), so only a third overlapping failure
  // pushes them into the catastrophic regime.
  const int tolerated = std::max(1, ParityDisksPerCluster(s));
  int down = 0;
  for (const QosEvent& e : journal_->Snapshot()) {
    if (e.scheme != scheme) continue;
    if (e.kind == QosEventKind::kDiskFailed) {
      if (++down > tolerated) return true;
    } else if (e.kind == QosEventKind::kDiskRepaired) {
      down = std::max(0, down - 1);
    }
  }
  return false;
}

std::vector<ConformanceFinding> ConformanceWatchdog::Run() const {
  std::vector<ConformanceFinding> findings;
  const SchedulerConfig& config = scheduler_->config();
  const SchedulerMetrics& m = scheduler_->metrics();
  const int c = config.parity_group_size;

  // The per-stream ledger view and the aggregate counter must describe
  // the same reality, whatever the scheme.
  findings.push_back(Checked(
      "hiccup_attribution_consistent",
      std::fabs(static_cast<double>(scheduler_->TotalHiccups() - m.hiccups)),
      0, "sum of per-stream hiccups vs metrics().hiccups"));

  const std::vector<FailureRecord> failures = Failures();
  const bool overlap = HadOverlappingFailures();
  std::string regime = std::to_string(failures.size()) + " failure(s)";
  if (journal_ == nullptr) regime = "no journal attached";
  if (overlap) regime += ", overlapping (catastrophic regime)";

  const auto gated = [&](const char* check,
                         bool extra_ok = true,
                         const char* extra_why = "") -> bool {
    if (journal_ == nullptr) {
      findings.push_back(NotApplicable(check, "no journal attached"));
      return false;
    }
    if (failures.empty()) {
      findings.push_back(NotApplicable(check, "no failures injected"));
      return false;
    }
    if (overlap) {
      findings.push_back(NotApplicable(
          check, "overlapping failures: catastrophic regime"));
      return false;
    }
    if (!extra_ok) {
      findings.push_back(NotApplicable(check, extra_why));
      return false;
    }
    return true;
  };

  switch (config.scheme) {
    case Scheme::kStreamingRaid:
    case Scheme::kStaggeredGroup: {
      const char* check = config.scheme == Scheme::kStreamingRaid
                              ? "sr_zero_hiccup_guarantee"
                              : "sg_zero_hiccup_guarantee";
      if (gated(check, m.dropped_reads == 0,
                "reads were dropped (overload): masking bound voided")) {
        findings.push_back(Checked(
            check, static_cast<double>(m.hiccups), 0,
            "single failures are masked by parity (Section 2); " + regime));
      }
      break;
    }
    case Scheme::kStreamingRaid2: {
      const char* check = "sr2_two_failure_masking";
      if (gated(check, m.dropped_reads == 0,
                "reads were dropped (overload): masking bound voided")) {
        findings.push_back(Checked(
            check, static_cast<double>(m.hiccups), 0,
            "up to two concurrent failures per cluster are masked by "
            "P+Q parity; " + regime));
      }
      break;
    }
    case Scheme::kNonClustered:
    case Scheme::kNonClustered2: {
      const bool no_degradation = m.degradation_events == 0;
      const char* why = "buffer servers exhausted: reconstruction bound "
                        "voided (Section 3 degradation)";
      // Which transition window [f, f+C] each hiccup falls into, and the
      // per-window / per-window-per-stream totals.
      int64_t outside = 0;
      std::map<size_t, int64_t> window_total;
      std::map<std::pair<size_t, StreamId>, int64_t> window_stream;
      for (const auto& stream : scheduler_->streams()) {
        for (const Hiccup& h : stream->hiccups()) {
          bool in_window = false;
          for (size_t i = 0; i < failures.size(); ++i) {
            if (h.cycle >= failures[i].cycle &&
                h.cycle <= failures[i].cycle + c) {
              in_window = true;
              ++window_total[i];
              ++window_stream[{i, stream->id()}];
              break;
            }
          }
          if (!in_window) ++outside;
        }
      }
      if (gated("nc_transition_window", no_degradation, why)) {
        findings.push_back(Checked(
            "nc_transition_window", static_cast<double>(outside), 0,
            "hiccups outside every C-cycle transition window; " + regime));
      }
      // Bounds scale with the group's data-block count: C-1 for NC,
      // C-2 for the dual-parity NC-2.
      const int dpg = c - ParityDisksPerCluster(config.scheme);
      if (gated("nc_loss_total_bound", no_degradation, why)) {
        int64_t worst_window = 0;
        for (const auto& [w, n] : window_total) {
          worst_window = std::max(worst_window, n);
        }
        findings.push_back(Checked(
            "nc_loss_total_bound", static_cast<double>(worst_window),
            static_cast<double>(dpg * (dpg - 1)) / 2.0,
            "tracks lost per failure <= 1+2+...+(D'-1) (Figure 6); " +
                regime));
      }
      if (gated("nc_loss_per_stream_bound", no_degradation, why)) {
        int64_t worst_stream = 0;
        for (const auto& [key, n] : window_stream) {
          worst_stream = std::max(worst_stream, n);
        }
        findings.push_back(Checked(
            "nc_loss_per_stream_bound", static_cast<double>(worst_stream),
            static_cast<double>(std::max(0, dpg - 1)),
            "stream at group position q loses D'-q tracks, max D'-1; " +
                regime));
      }
      break;
    }
    case Scheme::kImprovedBandwidth: {
      const bool no_degradation = m.degradation_events == 0;
      const char* why =
          "parity placement degraded (reserve exceeded): bound voided";
      int64_t mid_cycle_failures = 0;
      for (const FailureRecord& f : failures) {
        if (f.mid_cycle) ++mid_cycle_failures;
      }
      if (gated("ib_isolated_hiccup", no_degradation, why)) {
        int64_t worst = 0;
        for (const auto& stream : scheduler_->streams()) {
          worst = std::max(worst, stream->hiccup_count());
        }
        findings.push_back(Checked(
            "ib_isolated_hiccup", static_cast<double>(worst),
            static_cast<double>(mid_cycle_failures),
            "only a mid-sweep failure hiccups, one track per stream "
            "(Section 4); " + regime));
      }
      if (gated("ib_hiccup_window", no_degradation, why)) {
        int64_t outside = 0;
        for (const auto& stream : scheduler_->streams()) {
          for (const Hiccup& h : stream->hiccups()) {
            bool in_window = false;
            for (const FailureRecord& f : failures) {
              if (f.mid_cycle && h.cycle >= f.cycle &&
                  h.cycle <= f.cycle + 1) {
                in_window = true;
                break;
              }
            }
            if (!in_window) ++outside;
          }
        }
        findings.push_back(Checked(
            "ib_hiccup_window", static_cast<double>(outside), 0,
            "hiccups confined to the failure sweep and the cycle after; " +
                regime));
      }
      findings.push_back(Checked(
          "ib_cascade_depth_bound",
          static_cast<double>(m.max_shift_depth),
          static_cast<double>(scheduler_->num_clusters()),
          "shift-to-the-right travels at most once around the cluster "
          "ring"));
      if (m.dropped_reads == 0) {
        findings.push_back(Checked(
            "ib_reserve_degradation",
            static_cast<double>(m.degradation_events), 0,
            "within the K_IB reserve no parity read is abandoned"));
      } else {
        findings.push_back(NotApplicable(
            "ib_reserve_degradation",
            "reads were dropped: load exceeded the configured reserve"));
      }
      break;
    }
  }
  return findings;
}

bool ConformanceWatchdog::AllOk(
    const std::vector<ConformanceFinding>& findings) {
  for (const ConformanceFinding& f : findings) {
    if (!f.ok) return false;
  }
  return true;
}

std::string ConformanceWatchdog::FormatTable(
    const std::vector<ConformanceFinding>& findings) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-30s %-10s %10s %10s  %s\n", "check",
                "status", "observed", "bound", "detail");
  out += line;
  for (const ConformanceFinding& f : findings) {
    const char* status =
        !f.applicable ? "SKIPPED" : (f.ok ? "OK" : "VIOLATION");
    std::string observed = "-";
    std::string bound = "-";
    if (f.applicable) {
      observed.clear();
      AppendTextNumber(&observed, f.observed, 9);
      bound.clear();
      AppendTextNumber(&bound, f.bound, 9);
    }
    std::snprintf(line, sizeof(line), "%-30s %-10s %10s %10s  %s\n",
                  f.check.c_str(), status, observed.c_str(), bound.c_str(),
                  f.detail.c_str());
    out += line;
  }
  return out;
}

std::string ConformanceWatchdog::ToJson(
    const std::vector<ConformanceFinding>& findings,
    const std::string& indent) {
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const ConformanceFinding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += indent + "{\"check\": ";
    AppendJsonString(&out, f.check);
    out += ", \"ok\": ";
    out += f.ok ? "true" : "false";
    out += ", \"applicable\": ";
    out += f.applicable ? "true" : "false";
    out += ", \"observed\": ";
    AppendJsonNumber(&out, f.observed, 9);
    out += ", \"bound\": ";
    AppendJsonNumber(&out, f.bound, 9);
    out += ", \"detail\": ";
    AppendJsonString(&out, f.detail);
    out += "}";
  }
  out += findings.empty() ? "]" : "\n]";
  return out;
}

}  // namespace ftms
