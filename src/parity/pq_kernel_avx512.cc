#include "parity/pq_kernels_internal.h"

#if defined(FTMS_PQ_BUILD_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

#include "parity/gf256.h"

namespace ftms::internal {
namespace {

// vpshufb on zmm registers needs AVX-512BW (AVX-512F alone has no
// 512-bit byte shuffle).
bool Avx512Supported() { return __builtin_cpu_supports("avx512bw"); }

// The shuffle stays lane-local, so the 16-byte nibble tables broadcast
// to all four 128-bit lanes: 64 GF multiplies per instruction pair.
struct NibblePair {
  __m512i lo;
  __m512i hi;
};

NibblePair LoadTables(uint8_t c) {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  gf256::NibbleTables(c, lo, hi);
  return {_mm512_broadcast_i32x4(
              _mm_load_si128(reinterpret_cast<const __m128i*>(lo))),
          _mm512_broadcast_i32x4(
              _mm_load_si128(reinterpret_cast<const __m128i*>(hi)))};
}

inline __m512i MulBytes(__m512i v, const NibblePair& t, __m512i mask) {
  const __m512i lo = _mm512_and_si512(v, mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), mask);
  return _mm512_xor_si512(_mm512_shuffle_epi8(t.lo, lo),
                          _mm512_shuffle_epi8(t.hi, hi));
}

// Folds every source into kLanes 64-byte vectors of P, and of Q when kQ,
// at `off`: each accumulator is loaded once and stored once.
template <bool kQ, int kLanes>
inline void FoldBlock(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                      const NibblePair* tables, int nsrc, size_t off) {
  [[maybe_unused]] const __m512i mask = _mm512_set1_epi8(0x0f);
  __m512i vp[kLanes];
  [[maybe_unused]] __m512i vq[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    vp[l] = _mm512_loadu_si512(p + off + 64 * l);
    if constexpr (kQ) vq[l] = _mm512_loadu_si512(q + off + 64 * l);
  }
  for (int s = 0; s < nsrc; ++s) {
    __m512i v[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      v[l] = _mm512_loadu_si512(srcs[s] + off + 64 * l);
      vp[l] = _mm512_xor_si512(vp[l], v[l]);
    }
    if constexpr (kQ) {
      for (int l = 0; l < kLanes; ++l) {
        vq[l] = _mm512_xor_si512(vq[l], MulBytes(v[l], tables[s], mask));
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    _mm512_storeu_si512(p + off + 64 * l, vp[l]);
    if constexpr (kQ) _mm512_storeu_si512(q + off + 64 * l, vq[l]);
  }
}

// The kernel's one fold: P and Q when kQ, else P only (q and coeffs
// null). P-only keeps four vectors in flight to hide load latency; P+Q
// keeps one, whose shuffles already fill the pipeline.
template <bool kQ>
void Fold(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
          const uint8_t* coeffs, int nsrc, size_t bytes) {
  constexpr int kLanes = kQ ? 1 : 4;
  NibblePair tables[kMaxPqSources];
  if constexpr (kQ) {
    for (int s = 0; s < nsrc; ++s) tables[s] = LoadTables(coeffs[s]);
  }
  size_t off = 0;
  for (; off + 64 * kLanes <= bytes; off += 64 * kLanes) {
    FoldBlock<kQ, kLanes>(p, q, srcs, tables, nsrc, off);
  }
  for (; off + 64 <= bytes; off += 64) {
    FoldBlock<kQ, 1>(p, q, srcs, tables, nsrc, off);
  }
  FoldScalarTail(p, q, srcs, coeffs, nsrc, off, bytes);
}

void XorNAvx512(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
                size_t bytes) {
  Fold<false>(dst, nullptr, srcs, nullptr, nsrc, bytes);
}

void MulXorAvx512(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes) {
  const NibblePair t = LoadTables(c);
  const __m512i mask = _mm512_set1_epi8(0x0f);
  size_t off = 0;
  for (; off + 64 <= bytes; off += 64) {
    const __m512i v = _mm512_loadu_si512(src + off);
    __m512i d = _mm512_loadu_si512(dst + off);
    d = _mm512_xor_si512(d, MulBytes(v, t, mask));
    _mm512_storeu_si512(dst + off, d);
  }
  if (off < bytes) MulXorScalarImpl(dst + off, src + off, c, bytes - off);
}

}  // namespace

const PqKernel* GetPqKernelAvx512() {
  static constexpr PqKernel kKernel = {"avx512", Avx512Supported,
                                       Fold<true>, XorNAvx512,
                                       MulXorAvx512};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without AVX-512BW support

namespace ftms::internal {
const PqKernel* GetPqKernelAvx512() { return nullptr; }
}  // namespace ftms::internal

#endif
