#include "parity/pq_kernels_internal.h"

#if defined(FTMS_PQ_BUILD_SSSE3) && defined(__SSSE3__)

#include <immintrin.h>

#include "parity/gf256.h"

namespace ftms::internal {
namespace {

bool Ssse3Supported() { return __builtin_cpu_supports("ssse3"); }

// Loads the two 16-byte nibble tables for multiply-by-c: the classic
// pshufb GF multiply splits each byte into nibbles and looks both up,
// c*x = lo[x & 15] ^ hi[x >> 4].
struct NibblePair {
  __m128i lo;
  __m128i hi;
};

NibblePair LoadTables(uint8_t c) {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  gf256::NibbleTables(c, lo, hi);
  return {_mm_load_si128(reinterpret_cast<const __m128i*>(lo)),
          _mm_load_si128(reinterpret_cast<const __m128i*>(hi))};
}

inline __m128i MulBytes(__m128i v, const NibblePair& t, __m128i mask) {
  const __m128i lo = _mm_and_si128(v, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(t.lo, lo),
                       _mm_shuffle_epi8(t.hi, hi));
}

inline __m128i Load(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

inline void Store(uint8_t* at, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(at), v);
}

// Folds every source into kLanes 16-byte vectors of P, and of Q when kQ,
// at `off`: each accumulator is loaded once and stored once.
template <bool kQ, int kLanes>
inline void FoldBlock(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                      const NibblePair* tables, int nsrc, size_t off) {
  [[maybe_unused]] const __m128i mask = _mm_set1_epi8(0x0f);
  __m128i vp[kLanes];
  [[maybe_unused]] __m128i vq[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    vp[l] = Load(p + off + 16 * l);
    if constexpr (kQ) vq[l] = Load(q + off + 16 * l);
  }
  for (int s = 0; s < nsrc; ++s) {
    __m128i v[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      v[l] = Load(srcs[s] + off + 16 * l);
      vp[l] = _mm_xor_si128(vp[l], v[l]);
    }
    if constexpr (kQ) {
      for (int l = 0; l < kLanes; ++l) {
        vq[l] = _mm_xor_si128(vq[l], MulBytes(v[l], tables[s], mask));
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    Store(p + off + 16 * l, vp[l]);
    if constexpr (kQ) Store(q + off + 16 * l, vq[l]);
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
  for (; off + 16 * kLanes <= bytes; off += 16 * kLanes) {
    FoldBlock<kQ, kLanes>(p, q, srcs, tables, nsrc, off);
  }
  for (; off + 16 <= bytes; off += 16) {
    FoldBlock<kQ, 1>(p, q, srcs, tables, nsrc, off);
  }
  FoldScalarTail(p, q, srcs, coeffs, nsrc, off, bytes);
}

void XorNSsse3(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
               size_t bytes) {
  Fold<false>(dst, nullptr, srcs, nullptr, nsrc, bytes);
}

void MulXorSsse3(uint8_t* dst, const uint8_t* src, uint8_t c,
                 size_t bytes) {
  const NibblePair t = LoadTables(c);
  const __m128i mask = _mm_set1_epi8(0x0f);
  size_t off = 0;
  for (; off + 16 <= bytes; off += 16) {
    Store(dst + off,
          _mm_xor_si128(Load(dst + off), MulBytes(Load(src + off), t, mask)));
  }
  if (off < bytes) MulXorScalarImpl(dst + off, src + off, c, bytes - off);
}

}  // namespace

const PqKernel* GetPqKernelSsse3() {
  static constexpr PqKernel kKernel = {"ssse3", Ssse3Supported, Fold<true>,
                                       XorNSsse3, MulXorSsse3};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without SSSE3 support

namespace ftms::internal {
const PqKernel* GetPqKernelSsse3() { return nullptr; }
}  // namespace ftms::internal

#endif
