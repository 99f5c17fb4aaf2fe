#include "parity/xor_kernels.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "parity/xor_kernels_internal.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace ftms {
namespace {

// Selection micro-benchmark shape: a reconstruct-sized fold (5 sources,
// 32 KB — comfortably L1/L2 resident so it measures the kernel, not the
// memory system of whatever else is running). Best-of-kPasses guards
// against scheduler noise, the same trick Linux's calibrate_xor_blocks
// uses.
constexpr size_t kBenchBytes = 32 * 1024;
constexpr int kBenchSources = 5;
constexpr int kBenchReps = 24;
constexpr int kBenchPasses = 3;

double MeasureGbPerS(const XorKernel& kernel) {
  static std::vector<uint8_t>* buffers = [] {
    auto* bufs = new std::vector<uint8_t>[kBenchSources + 1];
    for (int i = 0; i <= kBenchSources; ++i) {
      bufs[i].assign(kBenchBytes, static_cast<uint8_t>(0x3b * (i + 1)));
    }
    return bufs;
  }();
  uint8_t* dst = buffers[kBenchSources].data();
  const uint8_t* srcs[kBenchSources];
  for (int i = 0; i < kBenchSources; ++i) srcs[i] = buffers[i].data();

  kernel.xor_n(dst, srcs, kBenchSources, kBenchBytes);  // warm up
  double best_seconds = 1e30;
  for (int pass = 0; pass < kBenchPasses; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kBenchReps; ++rep) {
      kernel.xor_n(dst, srcs, kBenchSources, kBenchBytes);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (seconds < best_seconds) best_seconds = seconds;
  }
  if (best_seconds <= 0) return 0;
  // Memory traffic per call: nsrc source reads + dst read + dst write.
  const double bytes_moved = static_cast<double>(kBenchReps) *
                             static_cast<double>(kBenchSources + 2) *
                             static_cast<double>(kBenchBytes);
  return bytes_moved / best_seconds / 1e9;
}

struct Selection {
  const XorKernel* active = nullptr;
  std::vector<XorKernelMeasurement> report;
};

void ExportSelection(const Selection& selection, MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (const XorKernelMeasurement& m : selection.report) {
    Gauge* gbps = registry->GetGauge(
        LabeledName("ftms_parity_kernel_gb_per_s", {{"kernel", m.name}}),
        "Measured XOR kernel throughput at selection time");
    if (gbps != nullptr) gbps->Set(m.gb_per_s);
    Gauge* active = registry->GetGauge(
        LabeledName("ftms_parity_kernel_active", {{"kernel", m.name}}),
        "1 for the XOR kernel the selector chose, 0 for the others");
    if (active != nullptr) active->Set(m.selected ? 1.0 : 0.0);
  }
}

// The FTMS_XOR_KERNEL pin, resolved once: null when unset or "auto", and
// when invalid (which warns; the dispatcher then auto-selects).
const XorKernel* EnvPin() {
  static const XorKernel* const pin = []() -> const XorKernel* {
    const char* env = std::getenv("FTMS_XOR_KERNEL");
    if (env == nullptr) return nullptr;
    StatusOr<const XorKernel*> parsed = ParseXorKernelSpec(env);
    if (!parsed.ok()) {
      FTMS_LOG(Warning) << "FTMS_XOR_KERNEL: " << parsed.status().ToString()
                        << "; auto-selecting";
      return nullptr;
    }
    if (*parsed != nullptr) {
      FTMS_LOG(Info) << "xor kernel pinned via FTMS_XOR_KERNEL="
                     << (*parsed)->name;
    }
    return *parsed;
  }();
  return pin;
}

// Calibration: times every compiled kernel once, on first call. Only
// auto-selection, the selection report and the kernel gauges need it.
const Selection& GetSelection() {
  static const Selection selection = [] {
    Selection sel;
    const XorKernel* best = internal::GetXorKernelScalar();
    double best_gbps = 0;
    for (const XorKernel& kernel : CompiledXorKernels()) {
      XorKernelMeasurement m;
      m.name = kernel.name;
      m.supported = kernel.supported();
      m.gb_per_s = m.supported ? MeasureGbPerS(kernel) : 0.0;
      if (m.supported && m.gb_per_s > best_gbps) {
        best = &kernel;
        best_gbps = m.gb_per_s;
      }
      sel.report.push_back(m);
    }
    if (const XorKernel* pin = EnvPin()) best = pin;
    sel.active = best;
    for (XorKernelMeasurement& m : sel.report) {
      m.selected = std::string_view(m.name) == best->name;
      FTMS_LOG(Info) << "xor kernel " << m.name << ": "
                     << (m.supported ? "" : "unsupported, ") << m.gb_per_s
                     << " GB/s" << (m.selected ? "  <= selected" : "");
    }
    ExportSelection(sel, MetricsRegistry::GlobalIfEnabled());
    return sel;
  }();
  return selection;
}

// The kernel the dispatcher hands out, resolved once on first use. A
// valid pin skips calibration unless the global registry is live, whose
// kernel gauges publish the measurements.
const XorKernel& Dispatched() {
  static const XorKernel* const kernel = [] {
    const XorKernel* pin = EnvPin();
    if (pin != nullptr && MetricsRegistry::GlobalIfEnabled() == nullptr) {
      return pin;
    }
    return GetSelection().active;
  }();
  return *kernel;
}

std::atomic<const XorKernel*> g_pinned{nullptr};

}  // namespace

std::span<const XorKernel> CompiledXorKernels() {
  static const std::vector<XorKernel> kernels = [] {
    std::vector<XorKernel> v;
    v.push_back(*internal::GetXorKernelScalar());
    for (const XorKernel* (*factory)() :
         {internal::GetXorKernelSse2, internal::GetXorKernelAvx2,
          internal::GetXorKernelAvx512, internal::GetXorKernelNeon}) {
      if (const XorKernel* kernel = factory()) v.push_back(*kernel);
    }
    return v;
  }();
  return kernels;
}

const XorKernel& ActiveXorKernel() {
  if (const XorKernel* pinned = g_pinned.load(std::memory_order_acquire)) {
    return *pinned;
  }
  return Dispatched();
}

const char* ActiveXorKernelName() { return ActiveXorKernel().name; }

void XorIntoN(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes) {
  FTMS_PROF_SCOPE("parity/xor");
  const XorKernel& kernel = ActiveXorKernel();
  while (nsrc > kMaxXorSources) {
    kernel.xor_n(dst, srcs, kMaxXorSources, bytes);
    srcs += kMaxXorSources;
    nsrc -= kMaxXorSources;
  }
  if (nsrc > 0) kernel.xor_n(dst, srcs, nsrc, bytes);
}

std::span<const XorKernelMeasurement> XorKernelSelectionReport() {
  return GetSelection().report;
}

StatusOr<const XorKernel*> FindXorKernel(std::string_view name) {
  std::string valid;
  for (const XorKernel& kernel : CompiledXorKernels()) {
    if (name == kernel.name) return &kernel;
    if (!valid.empty()) valid += ", ";
    valid += kernel.name;
  }
  return Status::InvalidArgument("unknown xor kernel '" + std::string(name) +
                                 "' (compiled kernels: " + valid + ")");
}

StatusOr<const XorKernel*> ParseXorKernelSpec(std::string_view spec) {
  if (spec.empty() || spec == "auto") {
    return static_cast<const XorKernel*>(nullptr);
  }
  StatusOr<const XorKernel*> kernel = FindXorKernel(spec);
  if (!kernel.ok()) return kernel.status();
  if (!(*kernel)->supported()) {
    return Status::FailedPrecondition("xor kernel '" + std::string(spec) +
                                      "' is not supported by this CPU");
  }
  return kernel;
}

void PinXorKernel(const XorKernel* kernel) {
  g_pinned.store(kernel, std::memory_order_release);
}

void ExportXorKernelMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  ExportSelection(GetSelection(), registry);
}

}  // namespace ftms
