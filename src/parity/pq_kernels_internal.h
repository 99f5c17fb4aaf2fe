#ifndef FTMS_PARITY_PQ_KERNELS_INTERNAL_H_
#define FTMS_PARITY_PQ_KERNELS_INTERNAL_H_

#include "parity/pq_kernels.h"

// Per-ISA P+Q kernel factories, one translation unit each so CMake can
// attach the matching target-feature flags (-mssse3, -mavx2, -mavx512bw,
// -mgfni, ...) to exactly the code that needs them; a factory returns
// nullptr when its TU was compiled without the ISA (missing compiler
// support, non-matching architecture, or -DFTMS_SIMD=OFF), which simply
// drops the kernel from the dispatch table.
//
// No inline function may be shared between these TUs: each is built
// with different -m flags, the linker keeps one copy of an inline
// function with external linkage, and the copy it keeps may hold
// instructions the running CPU lacks. Shared code is out of line in the
// scalar TU (the tails below); the synthesis constants are plain values.

namespace ftms::internal {

const PqKernel* GetPqKernelScalar();  // never null
const PqKernel* GetPqKernelSsse3();
const PqKernel* GetPqKernelAvx2();
const PqKernel* GetPqKernelAvx512();
const PqKernel* GetPqKernelGfni();
const PqKernel* GetPqKernelNeon();

// The scalar kernel's entries, exposed so SIMD kernels can delegate
// their sub-vector tails to one shared implementation.
void PqScalarImpl(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                  const uint8_t* coeffs, int nsrc, size_t bytes);
void XorNScalarImpl(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
                    size_t bytes);
void MulXorScalarImpl(uint8_t* dst, const uint8_t* src, uint8_t c,
                      size_t bytes);

// The scalar block synthesis and its check: the definition of the
// synthesized bytes and the tail of every vector synthesis. A vector
// body that has done n words continues with seed + n at dst + 8n.
void SynthScalarImpl(uint8_t* dst, uint64_t seed, size_t bytes);
bool SynthMatchesScalarImpl(const uint8_t* src, uint64_t seed,
                            size_t bytes);

// SynthMix's constants, repeated lane-wise by the vector bodies:
// SynthMix(x) is Finalize(x + kSynthGamma), where Finalize xor-shifts by
// 30, multiplies by kSynthMul1, xor-shifts by 27, multiplies by
// kSynthMul2 and xor-shifts by 31.
inline constexpr uint64_t kSynthGamma = 0x9e3779b97f4a7c15ull;
inline constexpr uint64_t kSynthMul1 = 0xbf58476d1ce4e5b9ull;
inline constexpr uint64_t kSynthMul2 = 0x94d049bb133111ebull;

// Folds bytes [off, bytes) of every source with the scalar kernel: into
// p only when q is null (the P-only fold, coeffs unused), else into p
// and q. The tail of every SIMD fold.
void FoldScalarTail(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                    const uint8_t* coeffs, int nsrc, size_t off,
                    size_t bytes);

}  // namespace ftms::internal

#endif  // FTMS_PARITY_PQ_KERNELS_INTERNAL_H_
