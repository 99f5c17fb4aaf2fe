#ifndef FTMS_PARITY_XOR_KERNELS_H_
#define FTMS_PARITY_XOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "parity/pq_kernels.h"

namespace ftms {

// The multi-source XOR fold. Every degraded read, rebuild pass, scrub
// and parity verify bottoms out in "dst ^= s0 ^ s1 ^ ... ^ s(n-1)".
// Doing that pairwise makes n full passes over dst; the fold makes ONE
// pass, keeping the destination in registers while it streams the
// sources. It runs as the P half of the dispatched P+Q kernel
// (parity/pq_kernels.h), so FTMS_PQ_KERNEL pins it too.

// The kernel folds at most this many sources per call; XorIntoN()
// batches larger groups.
inline constexpr int kMaxXorSources = kMaxPqSources;

// dst ^= XOR of all sources, one fused pass per kMaxXorSources batch
// through the active kernel's xor_n. Any nsrc >= 0 (0 is a no-op). No
// alignment requirements; sources may not overlap dst.
void XorIntoN(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes);

// The kernel XorIntoN runs: the active P+Q kernel. Only the end-to-end
// benchmark (bench/e2e) still asks for it under these names.
inline const PqKernel& ActiveXorKernel() { return ActivePqKernel(); }
inline const char* ActiveXorKernelName() { return ActivePqKernelName(); }

}  // namespace ftms

#endif  // FTMS_PARITY_XOR_KERNELS_H_
