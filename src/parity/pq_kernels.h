#ifndef FTMS_PARITY_PQ_KERNELS_H_
#define FTMS_PARITY_PQ_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/status.h"

namespace ftms {

// Vectorized parity kernels with runtime dispatch: one kernel table for
// the XOR fold of every degraded read, rebuild, scrub and verify, and the
// GF(2^8) P+Q fold of the dual-parity (RAID-6) schemes,
//   P ^= D0 ^ D1 ^ ... ^ D(k-1)
//   Q ^= c0*D0 ^ c1*D1 ^ ... ^ c(k-1)*D(k-1)     (c_i in GF(2^8))
// A kernel's pq computes BOTH syndromes in ONE fused pass over the
// sources, so each data byte is loaded exactly once and P/Q stay in
// registers; its xor_n is the P half of that loop (XorIntoN in
// parity/xor_kernels.h). Byte-at-a-time log/exp lookups run at a few
// hundred MB/s; the SIMD kernels (pshufb nibble tables, GFNI affine)
// run at memory bandwidth.
//
// Like Linux's xor_blocks, the dispatcher micro-benchmarks every kernel
// the binary was compiled with AND the CPU can run, once on first use,
// and picks the fastest; FTMS_PQ_KERNEL=<name> pins the choice instead
// (FTMS_PQ_KERNEL=scalar is how CI proves all kernels agree byte for
// byte). The one choice serves every entry of the table.
//
// The same table also synthesizes the deterministic block contents the
// datapath stands in for disk reads (verify/datapath.h), and checks a
// buffer against them without writing an expected block.
//
// Determinism: XOR and GF(2^8) arithmetic are exact, and the scalar
// kernel's synthesis loop defines the synthesized bytes, so every kernel
// produces byte-identical output — selection affects speed only, never
// results.

// Kernels fold at most this many sources per call; PqGenerateN(),
// PqAccumulate() and XorIntoN() batch larger groups.
inline constexpr int kMaxPqSources = 8;

struct PqKernel {
  // Stable lowercase identifier: "scalar", "ssse3", "avx2", "avx512",
  // "gfni", "neon". Used by FTMS_PQ_KERNEL and in metric labels.
  const char* name;
  // True when the running CPU can execute this kernel. (Kernels the
  // COMPILER could not build are absent from CompiledPqKernels()
  // entirely.)
  bool (*supported)();
  // p[i] ^= srcs[0][i] ^ ... ^ srcs[nsrc-1][i]
  // q[i] ^= coeffs[0]*srcs[0][i] ^ ... ^ coeffs[nsrc-1]*srcs[nsrc-1][i]
  // for i in [0, bytes), products in GF(2^8). XOR-accumulating, so
  // callers seed p/q (zero for a fresh syndrome) and batch freely.
  // Requires 1 <= nsrc <= kMaxPqSources. No alignment requirements;
  // sources may not overlap p or q, and p may not overlap q.
  void (*pq)(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
             const uint8_t* coeffs, int nsrc, size_t bytes);
  // dst[i] ^= srcs[0][i] ^ ... ^ srcs[nsrc-1][i]: the P half of pq(),
  // same requirements, with no Q work at all.
  void (*xor_n)(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
                size_t bytes);
  // dst[i] ^= c * src[i] in GF(2^8) — the scaling primitive of
  // two-erasure reconstruction. src may not overlap dst.
  void (*mul_xor)(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes);
  // Block synthesis: writes word i of dst (8 bytes, native byte order)
  // as SynthMix(seed + i), the last word cut to the bytes left. No
  // alignment requirements.
  void (*synth)(uint8_t* dst, uint64_t seed, size_t bytes);
  // True when src[0, bytes) equals what synth(dst, seed, bytes) writes,
  // compared in registers: no expected block is written.
  bool (*synth_matches)(const uint8_t* src, uint64_t seed, size_t bytes);
};

// The SplitMix64 finalizer (Steele, Lea and Flood, OOPSLA 2014) behind
// block synthesis: the one definition of the word function, also used to
// derive a block's seed.
uint64_t SynthMix(uint64_t x);

// Every kernel compiled into this binary, scalar first. Entries are
// stable for the process lifetime.
std::span<const PqKernel> CompiledPqKernels();

// The dispatched kernel: the FTMS_PQ_KERNEL pin if set and valid,
// otherwise the micro-benchmark winner. Selection runs once on first
// use and is thread-safe, and publishes the measurements to the global
// metrics registry when it is enabled:
//   ftms_parity_pq_kernel_gb_per_s{kernel="..."}  measured throughput
//   ftms_parity_pq_kernel_active{kernel="..."}    1 for the dispatched
// A valid pin skips the micro-benchmark unless that registry is enabled.
const PqKernel& ActivePqKernel();
const char* ActivePqKernelName();

// Accumulates the P and Q syndromes of `nsrc` sources into p/q through
// the active kernel, batching kMaxPqSources at a time. Source s takes
// the standard RAID-6 coefficient g^(first_index + s), so a group's
// syndrome can be built across multiple calls by advancing first_index.
// p and q must be seeded (zero for a fresh syndrome); nsrc may be 0.
void PqGenerateN(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                 int nsrc, size_t bytes, int first_index = 0);

// Like PqGenerateN but with an explicit coefficient per source —
// two-erasure reconstruction folds SURVIVING data, whose indices skip
// the erased columns, so the g^i run is not contiguous there.
void PqAccumulate(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                  const uint8_t* coeffs, int nsrc, size_t bytes);

// dst ^= c * src through the active kernel.
void GfMulXorInto(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes);

// One row of the startup selection report.
struct PqKernelMeasurement {
  const char* name = nullptr;
  bool supported = false;   // CPU can run it
  // GiB/s, 0 when unsupported; counts source reads + p/q reads + p/q
  // writes (memory traffic).
  double gb_per_s = 0.0;
  bool selected = false;
};

// The measurements the dispatcher took (one entry per compiled kernel,
// in CompiledPqKernels() order). Runs the micro-benchmark on first
// call, pinned or not.
std::span<const PqKernelMeasurement> PqKernelSelectionReport();

// Looks up a compiled kernel by name; InvalidArgument on unknown names
// (the message lists the valid ones).
StatusOr<const PqKernel*> FindPqKernel(std::string_view name);

// Parses an FTMS_PQ_KERNEL-style value. "" and "auto" mean auto-select
// and return nullptr; otherwise the named kernel, which must be
// compiled in (InvalidArgument) and runnable on this CPU
// (FailedPrecondition).
StatusOr<const PqKernel*> ParsePqKernelSpec(std::string_view spec);

// Test hook: overrides the active kernel (nullptr returns to the
// dispatcher's choice). Not for production use — the metrics exported
// at selection time keep describing the dispatcher's pick.
void PinPqKernel(const PqKernel* kernel);

}  // namespace ftms

#endif  // FTMS_PARITY_PQ_KERNELS_H_
