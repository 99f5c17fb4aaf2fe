#include <cstring>

#include "parity/gf256.h"
#include "parity/pq_kernels_internal.h"

namespace ftms {

uint64_t SynthMix(uint64_t x) {
  x += internal::kSynthGamma;
  x = (x ^ (x >> 30)) * internal::kSynthMul1;
  x = (x ^ (x >> 27)) * internal::kSynthMul2;
  return x ^ (x >> 31);
}

namespace internal {
namespace {

bool AlwaysSupported() { return true; }

}  // namespace

void PqScalarImpl(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                  const uint8_t* coeffs, int nsrc, size_t bytes) {
  // One 256-byte multiply row per coefficient (hot rows stay in L1),
  // one pass over p and q: per byte, fold every source into both
  // accumulators before the store. This table walk IS the scalar GF
  // baseline the SIMD kernels are measured against.
  const uint8_t* rows[kMaxPqSources];
  for (int s = 0; s < nsrc; ++s) rows[s] = gf256::MulRow(coeffs[s]);
  for (size_t i = 0; i < bytes; ++i) {
    uint8_t dp = p[i];
    uint8_t dq = q[i];
    for (int s = 0; s < nsrc; ++s) {
      const uint8_t v = srcs[s][i];
      dp = static_cast<uint8_t>(dp ^ v);
      dq = static_cast<uint8_t>(dq ^ rows[s][v]);
    }
    p[i] = dp;
    q[i] = dq;
  }
}

void XorNScalarImpl(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
                    size_t bytes) {
  size_t off = 0;
  // Word-at-a-time over the destination, folding every source before the
  // store: one pass over dst regardless of group size. memcpy loads keep
  // this UB-free on unaligned spans; compilers lower them to plain
  // (auto-vectorizable) loads.
  for (; off + 8 <= bytes; off += 8) {
    uint64_t d;
    __builtin_memcpy(&d, dst + off, 8);
    for (int s = 0; s < nsrc; ++s) {
      uint64_t v;
      __builtin_memcpy(&v, srcs[s] + off, 8);
      d ^= v;
    }
    __builtin_memcpy(dst + off, &d, 8);
  }
  for (; off < bytes; ++off) {
    uint8_t d = dst[off];
    for (int s = 0; s < nsrc; ++s) {
      d = static_cast<uint8_t>(d ^ srcs[s][off]);
    }
    dst[off] = d;
  }
}

void MulXorScalarImpl(uint8_t* dst, const uint8_t* src, uint8_t c,
                      size_t bytes) {
  const uint8_t* row = gf256::MulRow(c);
  for (size_t i = 0; i < bytes; ++i) {
    dst[i] = static_cast<uint8_t>(dst[i] ^ row[src[i]]);
  }
}

void SynthScalarImpl(uint8_t* dst, uint64_t seed, size_t bytes) {
  size_t off = 0;
  for (; off + 8 <= bytes; off += 8) {
    const uint64_t word = SynthMix(seed++);
    __builtin_memcpy(dst + off, &word, 8);
  }
  if (off < bytes) {
    const uint64_t word = SynthMix(seed);
    __builtin_memcpy(dst + off, &word, bytes - off);
  }
}

bool SynthMatchesScalarImpl(const uint8_t* src, uint64_t seed,
                            size_t bytes) {
  uint64_t diff = 0;
  size_t off = 0;
  for (; off + 8 <= bytes; off += 8) {
    uint64_t v;
    __builtin_memcpy(&v, src + off, 8);
    diff |= v ^ SynthMix(seed++);
  }
  if (off < bytes) {
    const uint64_t word = SynthMix(seed);
    diff |= static_cast<uint64_t>(
        std::memcmp(src + off, &word, bytes - off) != 0);
  }
  return diff == 0;
}

void FoldScalarTail(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                    const uint8_t* coeffs, int nsrc, size_t off,
                    size_t bytes) {
  if (off >= bytes) return;
  const uint8_t* tails[kMaxPqSources];
  for (int s = 0; s < nsrc; ++s) tails[s] = srcs[s] + off;
  if (q == nullptr) {
    XorNScalarImpl(p + off, tails, nsrc, bytes - off);
  } else {
    PqScalarImpl(p + off, q + off, tails, coeffs, nsrc, bytes - off);
  }
}

const PqKernel* GetPqKernelScalar() {
  static constexpr PqKernel kKernel = {"scalar", AlwaysSupported,
                                       PqScalarImpl, XorNScalarImpl,
                                       MulXorScalarImpl, SynthScalarImpl,
                                       SynthMatchesScalarImpl};
  return &kKernel;
}

}  // namespace internal
}  // namespace ftms
