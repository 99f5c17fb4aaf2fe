#include "parity/xor_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace ftms {
namespace {

// The XOR fold runs as the P half of each P+Q kernel (its xor_n). XOR is
// exact, so EVERY compiled kernel the CPU can run must produce
// byte-identical output for every size, alignment and source count, and
// that output must equal the P its own pq() writes on the same inputs —
// dispatch may only change speed. The reference is computed independently
// (naive per-byte loop), so a bug shared by all kernels still fails.
std::vector<uint8_t> NaiveXor(const std::vector<uint8_t>& dst,
                              const std::vector<const uint8_t*>& srcs,
                              size_t bytes) {
  std::vector<uint8_t> out = dst;
  for (const uint8_t* src : srcs) {
    for (size_t i = 0; i < bytes; ++i) out[i] ^= src[i];
  }
  return out;
}

TEST(XorKernelTest, EveryRunnableKernelMatchesNaiveReference) {
  // Sizes hit every code path: empty, sub-word, word tails, one off each
  // vector width and each P-only unroll width (4 x 16, 32 and 64 B), and
  // a track-sized block that is not a multiple of any vector width.
  const size_t kSizes[] = {0, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                           127, 128, 129, 255, 256, 257, 1024, 4096 + 3,
                           50 * 1024 + 3};
  // Kernels promise no alignment requirements: misalign dst and every
  // source.
  const size_t kOffsets[] = {0, 1, 3};
  Rng rng(0x5EEDu);
  for (size_t bytes : kSizes) {
    for (size_t offset : kOffsets) {
      for (int nsrc = 1; nsrc <= kMaxXorSources; ++nsrc) {
        std::vector<std::vector<uint8_t>> backing(
            static_cast<size_t>(nsrc));
        std::vector<const uint8_t*> srcs;
        for (auto& buf : backing) {
          buf.resize(bytes + offset);
          for (uint8_t& b : buf) {
            b = static_cast<uint8_t>(rng.NextUint64());
          }
          srcs.push_back(buf.data() + offset);
        }
        std::vector<uint8_t> seed(bytes);
        for (uint8_t& b : seed) {
          b = static_cast<uint8_t>(rng.NextUint64());
        }
        const std::vector<uint8_t> expected =
            NaiveXor(seed, srcs, bytes);
        // P does not depend on the Q coefficients.
        const std::vector<uint8_t> coeffs(static_cast<size_t>(nsrc), 1);
        for (const PqKernel& kernel : CompiledPqKernels()) {
          if (!kernel.supported()) continue;
          std::vector<uint8_t> dst(bytes + offset);
          std::copy(seed.begin(), seed.end(), dst.begin() + offset);
          kernel.xor_n(dst.data() + offset, srcs.data(), nsrc, bytes);
          ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                                 dst.begin() + offset))
              << kernel.name << " diverges at bytes=" << bytes
              << " offset=" << offset << " nsrc=" << nsrc;
          std::vector<uint8_t> p(bytes + offset), q(bytes + offset);
          std::copy(seed.begin(), seed.end(), p.begin() + offset);
          kernel.pq(p.data() + offset, q.data() + offset, srcs.data(),
                    coeffs.data(), nsrc, bytes);
          ASSERT_EQ(dst, p) << kernel.name
                            << " xor_n differs from pq's P at bytes="
                            << bytes << " offset=" << offset
                            << " nsrc=" << nsrc;
        }
      }
    }
  }
}

TEST(XorKernelTest, XorIntoNBatchesBeyondMaxSources) {
  // 21 sources forces three kernel batches (8 + 8 + 5).
  constexpr int kSources = 2 * kMaxXorSources + 5;
  constexpr size_t kBytes = 1000;
  Rng rng(7);
  std::vector<std::vector<uint8_t>> backing(kSources);
  std::vector<const uint8_t*> srcs;
  for (auto& buf : backing) {
    buf.resize(kBytes);
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
    srcs.push_back(buf.data());
  }
  std::vector<uint8_t> dst(kBytes, 0xA5);
  const std::vector<uint8_t> expected = NaiveXor(dst, srcs, kBytes);
  XorIntoN(dst.data(), srcs.data(), kSources, kBytes);
  EXPECT_EQ(dst, expected);
  // nsrc = 0 is a documented no-op.
  XorIntoN(dst.data(), srcs.data(), 0, kBytes);
  EXPECT_EQ(dst, expected);
}

TEST(XorKernelTest, PinOverridesActiveKernel) {
  // One table: FTMS_PQ_KERNEL's pin moves the XOR fold too.
  const PqKernel* scalar = FindPqKernel("scalar").value();
  const char* before = ActiveXorKernelName();
  PinPqKernel(scalar);
  EXPECT_STREQ(ActiveXorKernelName(), "scalar");
  EXPECT_EQ(&ActiveXorKernel(), scalar);
  PinPqKernel(nullptr);
  EXPECT_STREQ(ActiveXorKernelName(), before);
}

}  // namespace
}  // namespace ftms
