#include "parity/pq_kernels_internal.h"

#if defined(FTMS_PQ_BUILD_NEON) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "parity/gf256.h"

namespace ftms::internal {
namespace {

// NEON is architectural on AArch64.
bool NeonSupported() { return true; }

// vqtbl1q_u8 is the 16-byte table lookup — the same nibble-split GF
// multiply as pshufb.
struct NibblePair {
  uint8x16_t lo;
  uint8x16_t hi;
};

NibblePair LoadTables(uint8_t c) {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  gf256::NibbleTables(c, lo, hi);
  return {vld1q_u8(lo), vld1q_u8(hi)};
}

inline uint8x16_t MulBytes(uint8x16_t v, const NibblePair& t,
                           uint8x16_t mask) {
  const uint8x16_t lo = vandq_u8(v, mask);
  const uint8x16_t hi = vandq_u8(vshrq_n_u8(v, 4), mask);
  return veorq_u8(vqtbl1q_u8(t.lo, lo), vqtbl1q_u8(t.hi, hi));
}

// Folds every source into kLanes 16-byte vectors of P, and of Q when kQ,
// at `off`: each accumulator is loaded once and stored once.
template <bool kQ, int kLanes>
inline void FoldBlock(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                      const NibblePair* tables, int nsrc, size_t off) {
  [[maybe_unused]] const uint8x16_t mask = vdupq_n_u8(0x0f);
  uint8x16_t vp[kLanes];
  [[maybe_unused]] uint8x16_t vq[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    vp[l] = vld1q_u8(p + off + 16 * l);
    if constexpr (kQ) vq[l] = vld1q_u8(q + off + 16 * l);
  }
  for (int s = 0; s < nsrc; ++s) {
    uint8x16_t v[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      v[l] = vld1q_u8(srcs[s] + off + 16 * l);
      vp[l] = veorq_u8(vp[l], v[l]);
    }
    if constexpr (kQ) {
      for (int l = 0; l < kLanes; ++l) {
        vq[l] = veorq_u8(vq[l], MulBytes(v[l], tables[s], mask));
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    vst1q_u8(p + off + 16 * l, vp[l]);
    if constexpr (kQ) vst1q_u8(q + off + 16 * l, vq[l]);
  }
}

// The kernel's one fold: P and Q when kQ, else P only (q and coeffs
// null). P-only keeps four vectors in flight to hide load latency; P+Q
// keeps one, whose table lookups already fill the pipeline.
template <bool kQ>
void Fold(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
          const uint8_t* coeffs, int nsrc, size_t bytes) {
  constexpr int kLanes = kQ ? 1 : 4;
  NibblePair tables[kMaxPqSources];
  if constexpr (kQ) {
    for (int s = 0; s < nsrc; ++s) tables[s] = LoadTables(coeffs[s]);
  }
  size_t off = 0;
  for (; off + 16 * kLanes <= bytes; off += 16 * kLanes) {
    FoldBlock<kQ, kLanes>(p, q, srcs, tables, nsrc, off);
  }
  for (; off + 16 <= bytes; off += 16) {
    FoldBlock<kQ, 1>(p, q, srcs, tables, nsrc, off);
  }
  FoldScalarTail(p, q, srcs, coeffs, nsrc, off, bytes);
}

void XorNNeon(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes) {
  Fold<false>(dst, nullptr, srcs, nullptr, nsrc, bytes);
}

void MulXorNeon(uint8_t* dst, const uint8_t* src, uint8_t c,
                size_t bytes) {
  const NibblePair t = LoadTables(c);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  size_t off = 0;
  for (; off + 16 <= bytes; off += 16) {
    const uint8x16_t v = vld1q_u8(src + off);
    uint8x16_t d = vld1q_u8(dst + off);
    d = veorq_u8(d, MulBytes(v, t, mask));
    vst1q_u8(dst + off, d);
  }
  if (off < bytes) MulXorScalarImpl(dst + off, src + off, c, bytes - off);
}

}  // namespace

const PqKernel* GetPqKernelNeon() {
  // Synthesis stays scalar: NEON has no 64-bit lane multiply.
  static constexpr PqKernel kKernel = {"neon", NeonSupported, Fold<true>,
                                       XorNNeon, MulXorNeon,
                                       SynthScalarImpl,
                                       SynthMatchesScalarImpl};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without NEON support

namespace ftms::internal {
const PqKernel* GetPqKernelNeon() { return nullptr; }
}  // namespace ftms::internal

#endif
