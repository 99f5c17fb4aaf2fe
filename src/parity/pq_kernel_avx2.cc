#include "parity/pq_kernels_internal.h"

#if defined(FTMS_PQ_BUILD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "parity/gf256.h"

namespace ftms::internal {
namespace {

bool Avx2Supported() { return __builtin_cpu_supports("avx2"); }

// vpshufb shuffles within each 128-bit lane, so broadcasting the
// 16-byte nibble tables across both lanes gives 32 GF multiplies per
// instruction pair.
struct NibblePair {
  __m256i lo;
  __m256i hi;
};

NibblePair LoadTables(uint8_t c) {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  gf256::NibbleTables(c, lo, hi);
  return {_mm256_broadcastsi128_si256(
              _mm_load_si128(reinterpret_cast<const __m128i*>(lo))),
          _mm256_broadcastsi128_si256(
              _mm_load_si128(reinterpret_cast<const __m128i*>(hi)))};
}

inline __m256i MulBytes(__m256i v, const NibblePair& t, __m256i mask) {
  const __m256i lo = _mm256_and_si256(v, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(t.lo, lo),
                          _mm256_shuffle_epi8(t.hi, hi));
}

inline __m256i Load(const uint8_t* at) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at));
}

inline void Store(uint8_t* at, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(at), v);
}

// Folds every source into kLanes 32-byte vectors of P, and of Q when kQ,
// at `off`: each accumulator is loaded once and stored once.
template <bool kQ, int kLanes>
inline void FoldBlock(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                      const NibblePair* tables, int nsrc, size_t off) {
  [[maybe_unused]] const __m256i mask = _mm256_set1_epi8(0x0f);
  __m256i vp[kLanes];
  [[maybe_unused]] __m256i vq[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    vp[l] = Load(p + off + 32 * l);
    if constexpr (kQ) vq[l] = Load(q + off + 32 * l);
  }
  for (int s = 0; s < nsrc; ++s) {
    __m256i v[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      v[l] = Load(srcs[s] + off + 32 * l);
      vp[l] = _mm256_xor_si256(vp[l], v[l]);
    }
    if constexpr (kQ) {
      for (int l = 0; l < kLanes; ++l) {
        vq[l] = _mm256_xor_si256(vq[l], MulBytes(v[l], tables[s], mask));
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    Store(p + off + 32 * l, vp[l]);
    if constexpr (kQ) Store(q + off + 32 * l, vq[l]);
  }
}

// The kernel's one fold: P and Q when kQ, else P only (q and coeffs
// null). Several accumulators hide load and shuffle latency while the
// sources stream: four for P-only, two pairs for P+Q.
template <bool kQ>
void Fold(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
          const uint8_t* coeffs, int nsrc, size_t bytes) {
  constexpr int kLanes = kQ ? 2 : 4;
  NibblePair tables[kMaxPqSources];
  if constexpr (kQ) {
    for (int s = 0; s < nsrc; ++s) tables[s] = LoadTables(coeffs[s]);
  }
  size_t off = 0;
  for (; off + 32 * kLanes <= bytes; off += 32 * kLanes) {
    FoldBlock<kQ, kLanes>(p, q, srcs, tables, nsrc, off);
  }
  for (; off + 32 <= bytes; off += 32) {
    FoldBlock<kQ, 1>(p, q, srcs, tables, nsrc, off);
  }
  FoldScalarTail(p, q, srcs, coeffs, nsrc, off, bytes);
}

void XorNAvx2(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes) {
  Fold<false>(dst, nullptr, srcs, nullptr, nsrc, bytes);
}

void MulXorAvx2(uint8_t* dst, const uint8_t* src, uint8_t c,
                size_t bytes) {
  const NibblePair t = LoadTables(c);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  size_t off = 0;
  for (; off + 32 <= bytes; off += 32) {
    Store(dst + off, _mm256_xor_si256(Load(dst + off),
                                      MulBytes(Load(src + off), t, mask)));
  }
  if (off < bytes) MulXorScalarImpl(dst + off, src + off, c, bytes - off);
}

// Block synthesis, four 64-bit words per vector. AVX2 multiplies only
// 32x32->64 (vpmuludq), so each 64-bit product is built from the 32-bit
// halves of a and of the constant b:
//   a*b mod 2^64 = lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32).
struct MulConst {
  __m256i lo;
  __m256i hi;
};

MulConst SplitConst(uint64_t b) {
  return {_mm256_set1_epi64x(static_cast<long long>(b & 0xffffffffu)),
          _mm256_set1_epi64x(static_cast<long long>(b >> 32))};
}

inline __m256i MulLo64(__m256i a, const MulConst& b) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b.lo),
                       _mm256_mul_epu32(a, b.hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b.lo),
                          _mm256_slli_epi64(cross, 32));
}

// SynthMix without its leading add, which the callers fold into the
// counters.
inline __m256i Finalize(__m256i x, const MulConst& m1, const MulConst& m2) {
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), m1);
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), m2);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

// The kernel's one synthesis loop: writes the word stream to dst, or
// when kCheck compares src against it. kVecs vectors per step keep
// independent multiply chains in flight. Returns whether src matched
// (true when writing).
template <bool kCheck>
bool Synth(uint8_t* dst, const uint8_t* src, uint64_t seed, size_t bytes) {
  constexpr int kVecs = 2;
  const MulConst m1 = SplitConst(kSynthMul1);
  const MulConst m2 = SplitConst(kSynthMul2);
  const __m256i step = _mm256_set1_epi64x(4 * kVecs);
  __m256i x[kVecs];
  x[0] = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(seed + kSynthGamma)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  for (int v = 1; v < kVecs; ++v) {
    x[v] = _mm256_add_epi64(x[v - 1], _mm256_set1_epi64x(4));
  }
  [[maybe_unused]] __m256i diff = _mm256_setzero_si256();
  size_t off = 0;
  for (; off + 32 * kVecs <= bytes; off += 32 * kVecs) {
    for (int v = 0; v < kVecs; ++v) {
      const __m256i w = Finalize(x[v], m1, m2);
      if constexpr (kCheck) {
        diff = _mm256_or_si256(diff,
                               _mm256_xor_si256(w, Load(src + off + 32 * v)));
      } else {
        Store(dst + off + 32 * v, w);
      }
      x[v] = _mm256_add_epi64(x[v], step);
    }
  }
  if constexpr (kCheck) {
    return _mm256_testz_si256(diff, diff) &&
           SynthMatchesScalarImpl(src + off, seed + off / 8, bytes - off);
  }
  SynthScalarImpl(dst + off, seed + off / 8, bytes - off);
  return true;
}

void SynthAvx2(uint8_t* dst, uint64_t seed, size_t bytes) {
  Synth<false>(dst, nullptr, seed, bytes);
}

bool SynthMatchesAvx2(const uint8_t* src, uint64_t seed, size_t bytes) {
  return Synth<true>(nullptr, src, seed, bytes);
}

}  // namespace

const PqKernel* GetPqKernelAvx2() {
  static constexpr PqKernel kKernel = {"avx2", Avx2Supported, Fold<true>,
                                       XorNAvx2, MulXorAvx2, SynthAvx2,
                                       SynthMatchesAvx2};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without AVX2 support

namespace ftms::internal {
const PqKernel* GetPqKernelAvx2() { return nullptr; }
}  // namespace ftms::internal

#endif
