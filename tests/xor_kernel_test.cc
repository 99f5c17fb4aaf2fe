#include "parity/xor_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/random.h"

namespace ftms {
namespace {

// The determinism contract of the kernel library: XOR is exact, so EVERY
// compiled kernel the CPU can run must produce byte-identical output for
// every size, alignment and source count — dispatch may only change
// speed. The reference below is computed independently (naive per-byte
// loop), so a bug shared by all kernels still fails.
std::vector<uint8_t> NaiveXor(const std::vector<uint8_t>& dst,
                              const std::vector<const uint8_t*>& srcs,
                              size_t bytes) {
  std::vector<uint8_t> out = dst;
  for (const uint8_t* src : srcs) {
    for (size_t i = 0; i < bytes; ++i) out[i] ^= src[i];
  }
  return out;
}

TEST(XorKernelTest, ScalarIsAlwaysCompiledAndRunnable) {
  ASSERT_FALSE(CompiledXorKernels().empty());
  EXPECT_STREQ(CompiledXorKernels().front().name, "scalar");
  EXPECT_TRUE(CompiledXorKernels().front().supported());
}

TEST(XorKernelTest, EveryRunnableKernelMatchesNaiveReference) {
  // Sizes chosen to hit every code path: empty, sub-word, word tails,
  // one-off-vector widths, the unrolled main loop, and a track-sized
  // block that is not a multiple of any vector width.
  const size_t kSizes[] = {0, 1, 7, 8, 15, 63, 64, 65, 127, 128, 129,
                           255, 256, 257, 1024, 4096 + 3, 50 * 1024 + 3};
  // Offsets into an oversized buffer: kernels promise no alignment
  // requirements, so deliberately misalign dst and every source.
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
        for (const XorKernel& kernel : CompiledXorKernels()) {
          if (!kernel.supported()) continue;
          std::vector<uint8_t> dst(bytes + offset);
          std::copy(seed.begin(), seed.end(), dst.begin() + offset);
          kernel.xor_n(dst.data() + offset, srcs.data(), nsrc, bytes);
          ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                                 dst.begin() + offset))
              << kernel.name << " diverges at bytes=" << bytes
              << " offset=" << offset << " nsrc=" << nsrc;
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

TEST(XorKernelTest, SelectionReportCoversEveryCompiledKernel) {
  const auto report = XorKernelSelectionReport();
  ASSERT_EQ(report.size(), CompiledXorKernels().size());
  int selected = 0;
  for (const XorKernelMeasurement& m : report) {
    if (m.selected) {
      ++selected;
      EXPECT_TRUE(m.supported);
      EXPECT_STREQ(m.name, ActiveXorKernelName());
    }
    if (m.supported) EXPECT_GT(m.gb_per_s, 0.0);
  }
  EXPECT_EQ(selected, 1);
}

TEST(XorKernelTest, FindXorKernelKnowsScalarAndRejectsUnknown) {
  ASSERT_TRUE(FindXorKernel("scalar").ok());
  EXPECT_STREQ(FindXorKernel("scalar").value()->name, "scalar");
  const auto missing = FindXorKernel("mmx");
  ASSERT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  // The error names the valid choices.
  EXPECT_NE(missing.status().message().find("scalar"), std::string::npos);
}

TEST(XorKernelTest, ParseXorKernelSpecAutoAndEmptyMeanDispatch) {
  EXPECT_EQ(ParseXorKernelSpec("").value(), nullptr);
  EXPECT_EQ(ParseXorKernelSpec("auto").value(), nullptr);
  EXPECT_STREQ(ParseXorKernelSpec("scalar").value()->name, "scalar");
  EXPECT_EQ(ParseXorKernelSpec("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(XorKernelTest, PinOverridesActiveKernel) {
  const XorKernel* scalar = FindXorKernel("scalar").value();
  const char* before = ActiveXorKernelName();
  PinXorKernel(scalar);
  EXPECT_STREQ(ActiveXorKernelName(), "scalar");
  PinXorKernel(nullptr);
  EXPECT_STREQ(ActiveXorKernelName(), before);
}

}  // namespace
}  // namespace ftms
