#include "parity/pq_kernels_internal.h"

#if defined(FTMS_PQ_BUILD_GFNI) && defined(__GFNI__) && \
    defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include "parity/gf256.h"

namespace ftms::internal {
namespace {

// 512-bit VGF2P8AFFINEQB needs GFNI + AVX-512F (GCC additionally gates
// the intrinsic behind AVX-512BW). The instruction's own gf2p8mulb is
// locked to polynomial 0x11b; the affine form takes our 0x11d multiply
// as an 8x8 bit matrix, so one instruction does 64 GF multiplies with
// no table loads at all.
bool GfniSupported() {
  return __builtin_cpu_supports("gfni") &&
         __builtin_cpu_supports("avx512bw");
}

// Folds every source into kLanes 64-byte vectors of P, and of Q when kQ,
// at `off`: each accumulator is loaded once and stored once.
template <bool kQ, int kLanes>
inline void FoldBlock(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                      const __m512i* mats, int nsrc, size_t off) {
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
        vq[l] = _mm512_xor_si512(
            vq[l], _mm512_gf2p8affine_epi64_epi8(v[l], mats[s], 0));
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
// keeps one, whose affine multiplies already fill the pipeline.
template <bool kQ>
void Fold(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
          const uint8_t* coeffs, int nsrc, size_t bytes) {
  constexpr int kLanes = kQ ? 1 : 4;
  __m512i mats[kMaxPqSources];
  if constexpr (kQ) {
    for (int s = 0; s < nsrc; ++s) {
      mats[s] = _mm512_set1_epi64(
          static_cast<long long>(gf256::GfniMatrix(coeffs[s])));
    }
  }
  size_t off = 0;
  for (; off + 64 * kLanes <= bytes; off += 64 * kLanes) {
    FoldBlock<kQ, kLanes>(p, q, srcs, mats, nsrc, off);
  }
  for (; off + 64 <= bytes; off += 64) {
    FoldBlock<kQ, 1>(p, q, srcs, mats, nsrc, off);
  }
  FoldScalarTail(p, q, srcs, coeffs, nsrc, off, bytes);
}

void XorNGfni(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes) {
  Fold<false>(dst, nullptr, srcs, nullptr, nsrc, bytes);
}

void MulXorGfni(uint8_t* dst, const uint8_t* src, uint8_t c,
                size_t bytes) {
  const __m512i mat = _mm512_set1_epi64(
      static_cast<long long>(gf256::GfniMatrix(c)));
  size_t off = 0;
  for (; off + 64 <= bytes; off += 64) {
    const __m512i v = _mm512_loadu_si512(src + off);
    __m512i d = _mm512_loadu_si512(dst + off);
    d = _mm512_xor_si512(d, _mm512_gf2p8affine_epi64_epi8(v, mat, 0));
    _mm512_storeu_si512(dst + off, d);
  }
  if (off < bytes) MulXorScalarImpl(dst + off, src + off, c, bytes - off);
}

}  // namespace

const PqKernel* GetPqKernelGfni() {
  static constexpr PqKernel kKernel = {"gfni", GfniSupported, Fold<true>,
                                       XorNGfni, MulXorGfni};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without GFNI + AVX-512 support

namespace ftms::internal {
const PqKernel* GetPqKernelGfni() { return nullptr; }
}  // namespace ftms::internal

#endif
