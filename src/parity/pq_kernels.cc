#include "parity/pq_kernels.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "parity/gf256.h"
#include "parity/pq_kernels_internal.h"
#include "parity/xor_kernels.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace ftms {
namespace {

// Selection micro-benchmark shape: a syndrome-sized fold (5 sources,
// 32 KB — comfortably L1/L2 resident so it measures the kernel, not the
// memory system of whatever else is running). Best-of-kPasses guards
// against scheduler noise, the same trick Linux's calibrate_xor_blocks
// uses. The P+Q fold's speed picks the kernel for the XOR fold and
// for synthesis as well.
constexpr size_t kBenchBytes = 32 * 1024;
constexpr int kBenchSources = 5;
constexpr int kBenchReps = 24;
constexpr int kBenchPasses = 3;

double MeasureGbPerS(const PqKernel& kernel) {
  static std::vector<uint8_t>* buffers = [] {
    auto* bufs = new std::vector<uint8_t>[kBenchSources + 2];
    for (int i = 0; i < kBenchSources + 2; ++i) {
      bufs[i].assign(kBenchBytes, static_cast<uint8_t>(0x5d * (i + 1)));
    }
    return bufs;
  }();
  uint8_t* p = buffers[kBenchSources].data();
  uint8_t* q = buffers[kBenchSources + 1].data();
  const uint8_t* srcs[kBenchSources];
  uint8_t coeffs[kBenchSources];
  for (int i = 0; i < kBenchSources; ++i) {
    srcs[i] = buffers[i].data();
    coeffs[i] = gf256::Exp(i);
  }

  kernel.pq(p, q, srcs, coeffs, kBenchSources, kBenchBytes);  // warm up
  double best_seconds = 1e30;
  for (int pass = 0; pass < kBenchPasses; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kBenchReps; ++rep) {
      kernel.pq(p, q, srcs, coeffs, kBenchSources, kBenchBytes);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (seconds < best_seconds) best_seconds = seconds;
  }
  if (best_seconds <= 0) return 0;
  // Memory traffic per call: nsrc source reads + p read/write + q
  // read/write, in GiB/s like every kernel row of bench_parity_kernels.
  const double bytes_moved = static_cast<double>(kBenchReps) *
                             static_cast<double>(kBenchSources + 4) *
                             static_cast<double>(kBenchBytes);
  return bytes_moved / best_seconds / (1024.0 * 1024.0 * 1024.0);
}

struct Selection {
  const PqKernel* active = nullptr;
  std::vector<PqKernelMeasurement> report;
};

void ExportSelection(const Selection& selection, MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (const PqKernelMeasurement& m : selection.report) {
    Gauge* gbps = registry->GetGauge(
        LabeledName("ftms_parity_pq_kernel_gb_per_s", {{"kernel", m.name}}),
        "Measured GF(2^8) P+Q kernel throughput at selection time, GiB/s");
    if (gbps != nullptr) gbps->Set(m.gb_per_s);
    Gauge* active = registry->GetGauge(
        LabeledName("ftms_parity_pq_kernel_active", {{"kernel", m.name}}),
        "1 for the P+Q kernel the selector chose, 0 for the others");
    if (active != nullptr) active->Set(m.selected ? 1.0 : 0.0);
  }
}

// The FTMS_PQ_KERNEL pin, resolved once: null when unset or "auto", and
// when invalid (which warns; the dispatcher then auto-selects).
const PqKernel* EnvPin() {
  static const PqKernel* const pin = []() -> const PqKernel* {
    const char* env = std::getenv("FTMS_PQ_KERNEL");
    if (env == nullptr) return nullptr;
    StatusOr<const PqKernel*> parsed = ParsePqKernelSpec(env);
    if (!parsed.ok()) {
      FTMS_LOG(Warning) << "FTMS_PQ_KERNEL: " << parsed.status().ToString()
                        << "; auto-selecting";
      return nullptr;
    }
    if (*parsed != nullptr) {
      FTMS_LOG(Info) << "pq kernel pinned via FTMS_PQ_KERNEL="
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
    const PqKernel* best = internal::GetPqKernelScalar();
    double best_gbps = 0;
    for (const PqKernel& kernel : CompiledPqKernels()) {
      PqKernelMeasurement m;
      m.name = kernel.name;
      m.supported = kernel.supported();
      m.gb_per_s = m.supported ? MeasureGbPerS(kernel) : 0.0;
      if (m.supported && m.gb_per_s > best_gbps) {
        best = &kernel;
        best_gbps = m.gb_per_s;
      }
      sel.report.push_back(m);
    }
    if (const PqKernel* pin = EnvPin()) best = pin;
    sel.active = best;
    for (PqKernelMeasurement& m : sel.report) {
      m.selected = std::string_view(m.name) == best->name;
      FTMS_LOG(Info) << "pq kernel " << m.name << ": "
                     << (m.supported ? "" : "unsupported, ") << m.gb_per_s
                     << " GiB/s" << (m.selected ? "  <= selected" : "");
    }
    ExportSelection(sel, MetricsRegistry::GlobalIfEnabled());
    return sel;
  }();
  return selection;
}

// The kernel the dispatcher hands out, resolved once on first use. A
// valid pin skips calibration unless the global registry is live, whose
// kernel gauges publish the measurements.
const PqKernel& Dispatched() {
  static const PqKernel* const kernel = [] {
    const PqKernel* pin = EnvPin();
    if (pin != nullptr && MetricsRegistry::GlobalIfEnabled() == nullptr) {
      return pin;
    }
    return GetSelection().active;
  }();
  return *kernel;
}

std::atomic<const PqKernel*> g_pinned{nullptr};

}  // namespace

std::span<const PqKernel> CompiledPqKernels() {
  static const std::vector<PqKernel> kernels = [] {
    std::vector<PqKernel> v;
    v.push_back(*internal::GetPqKernelScalar());
    for (const PqKernel* (*factory)() :
         {internal::GetPqKernelSsse3, internal::GetPqKernelAvx2,
          internal::GetPqKernelAvx512, internal::GetPqKernelGfni,
          internal::GetPqKernelNeon}) {
      if (const PqKernel* kernel = factory()) v.push_back(*kernel);
    }
    return v;
  }();
  return kernels;
}

const PqKernel& ActivePqKernel() {
  if (const PqKernel* pinned = g_pinned.load(std::memory_order_acquire)) {
    return *pinned;
  }
  return Dispatched();
}

const char* ActivePqKernelName() { return ActivePqKernel().name; }

void PqGenerateN(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                 int nsrc, size_t bytes, int first_index) {
  FTMS_PROF_SCOPE("parity/pq");
  const PqKernel& kernel = ActivePqKernel();
  uint8_t coeffs[kMaxPqSources];
  int index = first_index;
  while (nsrc > 0) {
    const int batch = nsrc < kMaxPqSources ? nsrc : kMaxPqSources;
    for (int s = 0; s < batch; ++s) {
      coeffs[s] = gf256::Exp(index + s);
    }
    kernel.pq(p, q, srcs, coeffs, batch, bytes);
    srcs += batch;
    index += batch;
    nsrc -= batch;
  }
}

void PqAccumulate(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                  const uint8_t* coeffs, int nsrc, size_t bytes) {
  FTMS_PROF_SCOPE("parity/pq");
  const PqKernel& kernel = ActivePqKernel();
  while (nsrc > kMaxPqSources) {
    kernel.pq(p, q, srcs, coeffs, kMaxPqSources, bytes);
    srcs += kMaxPqSources;
    coeffs += kMaxPqSources;
    nsrc -= kMaxPqSources;
  }
  if (nsrc > 0) kernel.pq(p, q, srcs, coeffs, nsrc, bytes);
}

void XorIntoN(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes) {
  FTMS_PROF_SCOPE("parity/xor");
  const PqKernel& kernel = ActivePqKernel();
  while (nsrc > kMaxXorSources) {
    kernel.xor_n(dst, srcs, kMaxXorSources, bytes);
    srcs += kMaxXorSources;
    nsrc -= kMaxXorSources;
  }
  if (nsrc > 0) kernel.xor_n(dst, srcs, nsrc, bytes);
}

void GfMulXorInto(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes) {
  ActivePqKernel().mul_xor(dst, src, c, bytes);
}

std::span<const PqKernelMeasurement> PqKernelSelectionReport() {
  return GetSelection().report;
}

StatusOr<const PqKernel*> FindPqKernel(std::string_view name) {
  std::string valid;
  for (const PqKernel& kernel : CompiledPqKernels()) {
    if (name == kernel.name) return &kernel;
    if (!valid.empty()) valid += ", ";
    valid += kernel.name;
  }
  return Status::InvalidArgument("unknown pq kernel '" + std::string(name) +
                                 "' (compiled kernels: " + valid + ")");
}

StatusOr<const PqKernel*> ParsePqKernelSpec(std::string_view spec) {
  if (spec.empty() || spec == "auto") {
    return static_cast<const PqKernel*>(nullptr);
  }
  StatusOr<const PqKernel*> kernel = FindPqKernel(spec);
  if (!kernel.ok()) return kernel.status();
  if (!(*kernel)->supported()) {
    return Status::FailedPrecondition("pq kernel '" + std::string(spec) +
                                      "' is not supported by this CPU");
  }
  return kernel;
}

void PinPqKernel(const PqKernel* kernel) {
  g_pinned.store(kernel, std::memory_order_release);
}

}  // namespace ftms
