#include "parity/pq_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "parity/gf256.h"
#include "parity/parity.h"
#include "util/random.h"

namespace ftms {
namespace {

// The determinism contract, same as xor_kernel_test: GF(2^8) arithmetic
// is exact, so EVERY compiled kernel the CPU can run must produce
// byte-identical P and Q for every size, alignment, source count and
// coefficient set — dispatch may only change speed. The reference is
// computed independently through gf256::MulSlow (bitwise, no tables),
// so a table-construction bug shared by all kernels still fails.
void NaivePq(std::vector<uint8_t>* p, std::vector<uint8_t>* q,
             const std::vector<const uint8_t*>& srcs,
             const std::vector<uint8_t>& coeffs, size_t bytes) {
  for (size_t s = 0; s < srcs.size(); ++s) {
    for (size_t i = 0; i < bytes; ++i) {
      (*p)[i] ^= srcs[s][i];
      (*q)[i] ^= gf256::MulSlow(coeffs[s], srcs[s][i]);
    }
  }
}

TEST(PqKernelTest, ScalarIsAlwaysCompiledAndRunnable) {
  ASSERT_FALSE(CompiledPqKernels().empty());
  EXPECT_STREQ(CompiledPqKernels().front().name, "scalar");
  EXPECT_TRUE(CompiledPqKernels().front().supported());
}

TEST(PqKernelTest, EveryRunnableKernelMatchesNaiveReference) {
  // Sizes hit every code path: empty, sub-vector, tails one off each
  // vector width, the unrolled loops, and a track-sized odd block.
  const size_t kSizes[] = {0, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                           127, 128, 129, 1024, 4096 + 3, 50 * 1024 + 3};
  // Kernels promise no alignment requirements: misalign everything.
  const size_t kOffsets[] = {0, 1, 3};
  Rng rng(0xC0FFEEu);
  for (size_t bytes : kSizes) {
    for (size_t offset : kOffsets) {
      for (int nsrc = 1; nsrc <= kMaxPqSources; ++nsrc) {
        std::vector<std::vector<uint8_t>> backing(
            static_cast<size_t>(nsrc));
        std::vector<const uint8_t*> srcs;
        std::vector<uint8_t> coeffs;
        for (int s = 0; s < nsrc; ++s) {
          auto& buf = backing[static_cast<size_t>(s)];
          buf.resize(bytes + offset);
          for (uint8_t& b : buf) {
            b = static_cast<uint8_t>(rng.NextUint64());
          }
          srcs.push_back(buf.data() + offset);
          // Mix of structured (g^s) and arbitrary coefficients,
          // including 0 and 1 edge cases.
          coeffs.push_back(
              s == 0 ? 0
                     : s == 1 ? 1
                              : static_cast<uint8_t>(rng.NextUint64()));
        }
        std::vector<uint8_t> seed_p(bytes), seed_q(bytes);
        for (uint8_t& b : seed_p) {
          b = static_cast<uint8_t>(rng.NextUint64());
        }
        for (uint8_t& b : seed_q) {
          b = static_cast<uint8_t>(rng.NextUint64());
        }
        std::vector<uint8_t> want_p = seed_p, want_q = seed_q;
        NaivePq(&want_p, &want_q, srcs, coeffs, bytes);
        for (const PqKernel& kernel : CompiledPqKernels()) {
          if (!kernel.supported()) continue;
          std::vector<uint8_t> p(bytes + offset), q(bytes + offset);
          std::copy(seed_p.begin(), seed_p.end(), p.begin() + offset);
          std::copy(seed_q.begin(), seed_q.end(), q.begin() + offset);
          kernel.pq(p.data() + offset, q.data() + offset, srcs.data(),
                    coeffs.data(), nsrc, bytes);
          ASSERT_TRUE(std::equal(want_p.begin(), want_p.end(),
                                 p.begin() + offset))
              << kernel.name << " P diverges at bytes=" << bytes
              << " offset=" << offset << " nsrc=" << nsrc;
          ASSERT_TRUE(std::equal(want_q.begin(), want_q.end(),
                                 q.begin() + offset))
              << kernel.name << " Q diverges at bytes=" << bytes
              << " offset=" << offset << " nsrc=" << nsrc;
        }
      }
    }
  }
}

TEST(PqKernelTest, EveryRunnableKernelMulXorMatchesReference) {
  const size_t kSizes[] = {0, 1, 15, 16, 17, 63, 64, 65, 1000,
                           50 * 1024 + 3};
  Rng rng(0xFACADEu);
  for (size_t bytes : kSizes) {
    for (int c : {0, 1, 2, 0x1d, 0xa7, 255}) {
      std::vector<uint8_t> src(bytes), seed(bytes);
      for (uint8_t& b : src) b = static_cast<uint8_t>(rng.NextUint64());
      for (uint8_t& b : seed) b = static_cast<uint8_t>(rng.NextUint64());
      std::vector<uint8_t> want = seed;
      for (size_t i = 0; i < bytes; ++i) {
        want[i] ^= gf256::MulSlow(static_cast<uint8_t>(c), src[i]);
      }
      for (const PqKernel& kernel : CompiledPqKernels()) {
        if (!kernel.supported()) continue;
        std::vector<uint8_t> dst = seed;
        kernel.mul_xor(dst.data(), src.data(), static_cast<uint8_t>(c),
                       bytes);
        ASSERT_EQ(dst, want) << kernel.name << " c=" << c
                             << " bytes=" << bytes;
      }
    }
  }
}

TEST(PqKernelTest, PqGenerateNBatchesBeyondMaxSources) {
  // 21 sources forces three kernel batches (8 + 8 + 5) with the g^i run
  // continuing across batch boundaries.
  constexpr int kSources = 2 * kMaxPqSources + 5;
  constexpr size_t kBytes = 1000;
  Rng rng(11);
  std::vector<std::vector<uint8_t>> backing(kSources);
  std::vector<const uint8_t*> srcs;
  std::vector<uint8_t> coeffs;
  for (int s = 0; s < kSources; ++s) {
    auto& buf = backing[static_cast<size_t>(s)];
    buf.resize(kBytes);
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
    srcs.push_back(buf.data());
    coeffs.push_back(gf256::Exp(s));
  }
  std::vector<uint8_t> p(kBytes, 0), q(kBytes, 0);
  std::vector<uint8_t> want_p = p, want_q = q;
  NaivePq(&want_p, &want_q, srcs, coeffs, kBytes);
  PqGenerateN(p.data(), q.data(), srcs.data(), kSources, kBytes);
  EXPECT_EQ(p, want_p);
  EXPECT_EQ(q, want_q);
  // nsrc = 0 is a no-op.
  PqGenerateN(p.data(), q.data(), srcs.data(), 0, kBytes);
  EXPECT_EQ(p, want_p);
  EXPECT_EQ(q, want_q);
}

TEST(PqKernelTest, SelectionReportCoversEveryCompiledKernel) {
  const auto report = PqKernelSelectionReport();
  ASSERT_EQ(report.size(), CompiledPqKernels().size());
  int selected = 0;
  for (const PqKernelMeasurement& m : report) {
    if (m.selected) {
      ++selected;
      EXPECT_TRUE(m.supported);
      EXPECT_STREQ(m.name, ActivePqKernelName());
    }
    if (m.supported) {
      EXPECT_GT(m.gb_per_s, 0.0);
    }
  }
  EXPECT_EQ(selected, 1);
}

TEST(PqKernelTest, FindPqKernelKnowsScalarAndRejectsUnknown) {
  ASSERT_TRUE(FindPqKernel("scalar").ok());
  EXPECT_STREQ(FindPqKernel("scalar").value()->name, "scalar");
  const auto missing = FindPqKernel("mmx");
  ASSERT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.status().message().find("scalar"), std::string::npos);
}

TEST(PqKernelTest, ParsePqKernelSpecAutoAndEmptyMeanDispatch) {
  EXPECT_EQ(ParsePqKernelSpec("").value(), nullptr);
  EXPECT_EQ(ParsePqKernelSpec("auto").value(), nullptr);
  EXPECT_STREQ(ParsePqKernelSpec("scalar").value()->name, "scalar");
  EXPECT_EQ(ParsePqKernelSpec("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PqKernelTest, PinOverridesActiveKernel) {
  const PqKernel* scalar = FindPqKernel("scalar").value();
  const char* before = ActivePqKernelName();
  PinPqKernel(scalar);
  EXPECT_STREQ(ActivePqKernelName(), "scalar");
  PinPqKernel(nullptr);
  EXPECT_STREQ(ActivePqKernelName(), before);
}

// ---------------------------------------------------------------------
// Block-level P+Q codec (parity.h): every two-erasure case must restore
// the exact original bytes, under every runnable kernel.

class PqCodecTest : public ::testing::TestWithParam<const PqKernel*> {};

std::vector<Block> RandomGroup(int k, size_t bytes, Rng* rng) {
  std::vector<Block> data(static_cast<size_t>(k));
  for (Block& b : data) {
    b.resize(bytes);
    for (uint8_t& v : b) v = static_cast<uint8_t>(rng->NextUint64());
  }
  return data;
}

TEST(PqCodecTest, ReconstructsEveryErasurePairUnderEveryKernel) {
  constexpr size_t kBytes = 257;  // odd: exercises vector tails
  Rng rng(0xD15C5u);
  for (const PqKernel& kernel : CompiledPqKernels()) {
    if (!kernel.supported()) continue;
    PinPqKernel(&kernel);
    for (int k : {1, 2, 3, 4, 7}) {
      const std::vector<Block> original = RandomGroup(k, kBytes, &rng);
      Block p0, q0;
      ASSERT_TRUE(ComputePq(original, &p0, &q0).ok());
      ASSERT_TRUE(VerifyPqGroup(original, p0, q0).value());
      // Every distinct unit pair (and every single unit, and none).
      std::vector<std::vector<int>> cases = {{}};
      for (int u = 0; u < k + 2; ++u) {
        cases.push_back({u});
        for (int v = u + 1; v < k + 2; ++v) cases.push_back({u, v});
      }
      for (const std::vector<int>& missing : cases) {
        std::vector<Block> data = original;
        Block p = p0, q = q0;
        for (int m : missing) {
          // Clobber the "lost" unit to prove repair writes real bytes.
          Block& victim = m < k ? data[static_cast<size_t>(m)]
                                : (m == k ? p : q);
          std::fill(victim.begin(), victim.end(), 0xEE);
        }
        ASSERT_TRUE(ReconstructPq(data, &p, &q, missing).ok())
            << kernel.name << " k=" << k;
        for (int u = 0; u < k; ++u) {
          ASSERT_EQ(data[static_cast<size_t>(u)],
                    original[static_cast<size_t>(u)])
              << kernel.name << " k=" << k << " unit=" << u;
        }
        ASSERT_EQ(p, p0) << kernel.name << " k=" << k;
        ASSERT_EQ(q, q0) << kernel.name << " k=" << k;
      }
    }
  }
  PinPqKernel(nullptr);
}

TEST(PqCodecTest, RejectsBadErasureSets) {
  Rng rng(99);
  std::vector<Block> data = RandomGroup(3, 64, &rng);
  Block p, q;
  ASSERT_TRUE(ComputePq(data, &p, &q).ok());
  const int three[] = {0, 1, 2};
  EXPECT_EQ(ReconstructPq(data, &p, &q, three).code(),
            StatusCode::kInvalidArgument);
  const int dup[] = {1, 1};
  EXPECT_EQ(ReconstructPq(data, &p, &q, dup).code(),
            StatusCode::kInvalidArgument);
  const int oob[] = {0, 5};
  EXPECT_EQ(ReconstructPq(data, &p, &q, oob).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ftms
