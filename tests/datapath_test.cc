#include "verify/datapath.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

namespace ftms {
namespace {

constexpr size_t kBlockBytes = 512;

TEST(DataPathTest, SynthesisIsDeterministicAndDistinct) {
  const Block a = SynthesizeDataBlock(1, 7, kBlockBytes);
  EXPECT_EQ(a, SynthesizeDataBlock(1, 7, kBlockBytes));
  EXPECT_NE(a, SynthesizeDataBlock(1, 8, kBlockBytes));
  EXPECT_NE(a, SynthesizeDataBlock(2, 7, kBlockBytes));
  EXPECT_EQ(a.size(), kBlockBytes);
}

uint64_t Fnv1a64(const Block& block) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint8_t v : block) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Every other test compares synthesis against synthesis, which a wrong
// mixing constant passes. These digests of the synthesized bytes pin the
// bytes themselves (goldens, journals and the benchmark's byte checks all
// rest on them), at lengths that cover the empty block, a sub-word block,
// a sub-word tail and a track-sized block, a negative object id and a
// track past 2^32. They hold under every kernel, whichever is dispatched.
TEST(DataPathTest, SynthesizedBytesMatchPinnedDigests) {
  struct Case {
    int object_id;
    int64_t track;
    size_t bytes;
    uint64_t fnv1a;
  };
  const Case kCases[] = {
      {1, 7, 0, 0xcbf29ce484222325ull},
      {1, 7, 7, 0xb9ed4e501ac9b264ull},
      {0, 3, 71, 0xae96fe1f057aaaeeull},
      {2, 40, 51200, 0xf8c24b0c5c4296c1ull},
      {-3, int64_t{1} << 40, 64, 0x3d3388fa6ecc3d40ull},
      {7, 123456789, 4096 + 5, 0x5734bc69457c181eull},
  };
  for (const Case& c : kCases) {
    const Block block = SynthesizeDataBlock(c.object_id, c.track, c.bytes);
    ASSERT_EQ(block.size(), c.bytes);
    EXPECT_EQ(Fnv1a64(block), c.fnv1a)
        << "object " << c.object_id << " track " << c.track << " bytes "
        << c.bytes;
    EXPECT_TRUE(DataBlockMatches(c.object_id, c.track, c.bytes, block));
  }
}

TEST(DataPathTest, DataBlockMatchesRejectsWrongBytesAndLengths) {
  Block block = SynthesizeDataBlock(4, 9, kBlockBytes);
  EXPECT_TRUE(DataBlockMatches(4, 9, kBlockBytes, block));
  EXPECT_FALSE(DataBlockMatches(4, 10, kBlockBytes, block));
  EXPECT_FALSE(DataBlockMatches(5, 9, kBlockBytes, block));
  EXPECT_FALSE(DataBlockMatches(4, 9, kBlockBytes + 1, block));
  EXPECT_FALSE(DataBlockMatches(4, 9, kBlockBytes, Block()));
  block[kBlockBytes / 2] ^= 0x10;
  EXPECT_FALSE(DataBlockMatches(4, 9, kBlockBytes, block));
}

TEST(DataPathTest, HealthyReadIsDirect) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const TrackRead read =
      ReadTrackDegraded(*layout, 0, 3, 100, {}, kBlockBytes).value();
  EXPECT_FALSE(read.reconstructed);
  EXPECT_EQ(read.data, SynthesizeDataBlock(0, 3, kBlockBytes));
}

TEST(DataPathTest, DegradedReadReconstructsExactBytes) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  // Disk 2 holds track 2 of object 0's group 0.
  const TrackRead read =
      ReadTrackDegraded(*layout, 0, 2, 100, {2}, kBlockBytes).value();
  EXPECT_TRUE(read.reconstructed);
  EXPECT_EQ(read.data, SynthesizeDataBlock(0, 2, kBlockBytes));
}

TEST(DataPathTest, DoubleFailureInGroupIsUnavailable) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 2, 100, {1, 2}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
  // Data + parity disk of the same cluster: also catastrophic.
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 2, 100, {2, 4}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(DataPathTest, ShortFinalGroupReconstructs) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  // Object of 6 tracks: final group holds only tracks 4, 5.
  const TrackRead read =
      ReadTrackDegraded(*layout, 0, 5, 6, {6}, kBlockBytes).value();
  EXPECT_TRUE(read.reconstructed);
  EXPECT_EQ(read.data, SynthesizeDataBlock(0, 5, kBlockBytes));
}

// The batched path must be equivalent to N single-track calls: same
// bytes, same reconstructed flags, for a mix of degraded and healthy
// tracks in one batch (the rebuilt disk holds only some of them).
TEST(DataPathTest, BatchedReconstructionMatchesSingleTrackReads) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const int64_t object_tracks = 26;  // includes a short final group
  const DiskSet failed({2});
  std::vector<int64_t> tracks;
  for (int64_t t = 0; t < object_tracks; ++t) tracks.push_back(t);
  DegradedReadScratch scratch;
  std::vector<TrackRead> batched;
  ASSERT_TRUE(ReconstructTracksInto(*layout, 0, tracks, object_tracks,
                                    failed, kBlockBytes, &scratch,
                                    &batched)
                  .ok());
  ASSERT_EQ(batched.size(), tracks.size());
  int64_t reconstructed = 0;
  for (size_t i = 0; i < tracks.size(); ++i) {
    const TrackRead single =
        ReadTrackDegraded(*layout, 0, tracks[i], object_tracks, failed,
                          kBlockBytes)
            .value();
    EXPECT_EQ(batched[i].reconstructed, single.reconstructed)
        << "track " << tracks[i];
    EXPECT_EQ(batched[i].data, single.data) << "track " << tracks[i];
    if (batched[i].reconstructed) ++reconstructed;
  }
  EXPECT_GT(reconstructed, 0);  // disk 2 holds data of this object
}

TEST(DataPathTest, BatchedReconstructionRejectsDoubleFailure) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  const std::vector<int64_t> tracks = {2};
  DegradedReadScratch scratch;
  std::vector<TrackRead> out;
  EXPECT_EQ(ReconstructTracksInto(*layout, 0, tracks, 100, {1, 2},
                                  kBlockBytes, &scratch, &out)
                .code(),
            StatusCode::kUnavailable);
}

// Dual-parity (P+Q) layouts repair any TWO erasures per group. Cluster 0
// of the C=5 layout: data on disks 0-2, P on 3, Q on 4.
TEST(DataPathTest, DualParityTwoErasuresAreByteExact) {
  auto layout = CreateLayout(Scheme::kStreamingRaid2, 10, 5).value();
  const std::vector<DiskSet> patterns = {
      DiskSet({0, 1}),  // data + data: the full P+Q solve
      DiskSet({1, 3}),  // data + P: Q-only reconstruction
      DiskSet({2, 4}),  // data + Q: falls back to the XOR path
      DiskSet({3, 4}),  // P + Q: data reads stay direct
  };
  for (const DiskSet& failed : patterns) {
    for (int64_t track = 0; track < 3; ++track) {
      const TrackRead read =
          ReadTrackDegraded(*layout, 0, track, 100, failed, kBlockBytes)
              .value();
      EXPECT_EQ(read.data, SynthesizeDataBlock(0, track, kBlockBytes))
          << "track " << track;
    }
  }
}

TEST(DataPathTest, DualParityThreeErasuresAreUnavailable) {
  auto layout = CreateLayout(Scheme::kStreamingRaid2, 10, 5).value();
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 0, 100, {0, 1, 2}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ReadTrackDegraded(*layout, 0, 0, 100, {0, 3, 4}, kBlockBytes)
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(DataPathTest, DualParityBatchedMatchesSingleTrackReads) {
  auto layout = CreateLayout(Scheme::kStreamingRaid2, 10, 5).value();
  const int64_t object_tracks = 20;  // short final group (3-track groups)
  const DiskSet failed({0, 1});
  std::vector<int64_t> tracks;
  for (int64_t t = 0; t < object_tracks; ++t) tracks.push_back(t);
  DegradedReadScratch scratch;
  std::vector<TrackRead> batched;
  ASSERT_TRUE(ReconstructTracksInto(*layout, 0, tracks, object_tracks,
                                    failed, kBlockBytes, &scratch,
                                    &batched)
                  .ok());
  ASSERT_EQ(batched.size(), tracks.size());
  int64_t reconstructed = 0;
  for (size_t i = 0; i < tracks.size(); ++i) {
    const TrackRead single =
        ReadTrackDegraded(*layout, 0, tracks[i], object_tracks, failed,
                          kBlockBytes)
            .value();
    EXPECT_EQ(batched[i].data, single.data) << "track " << tracks[i];
    EXPECT_EQ(batched[i].data,
              SynthesizeDataBlock(0, tracks[i], kBlockBytes))
        << "track " << tracks[i];
    if (batched[i].reconstructed) ++reconstructed;
  }
  EXPECT_GT(reconstructed, 0);
}

// The headline property: for every scheme, group size and single failed
// disk, EVERY track of an object reads back bit-exact.
class DataPathProperty
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(DataPathProperty, SingleFailureIsAlwaysByteExact) {
  const auto [scheme, c] = GetParam();
  const int disks = (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) * 3;
  auto layout = CreateLayout(scheme, disks, c).value();
  const int64_t tracks = 6LL * (c - 1) + 1;  // includes a short group
  for (int failed = 0; failed < disks; ++failed) {
    StatusOr<int64_t> reconstructed = VerifyObjectReadback(
        *layout, /*object_id=*/1, tracks, {failed}, /*block_bytes=*/64);
    ASSERT_TRUE(reconstructed.ok())
        << SchemeName(scheme) << " C=" << c << " failed disk " << failed
        << ": " << reconstructed.status().ToString();
    // If the failed disk carries any of this object's data, something
    // must have been reconstructed; parity-only holders reconstruct 0.
    EXPECT_GE(*reconstructed, 0);
  }
}

TEST_P(DataPathProperty, HealthyReadbackNeverReconstructs) {
  const auto [scheme, c] = GetParam();
  const int disks = (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) * 3;
  auto layout = CreateLayout(scheme, disks, c).value();
  EXPECT_EQ(VerifyObjectReadback(*layout, 2, 4LL * (c - 1), {}, 64).value(),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndGroups, DataPathProperty,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kImprovedBandwidth),
                       ::testing::Values(2, 3, 5, 7)));

// Dual parity needs C >= 3 (two parity disks leave C-2 data slots).
INSTANTIATE_TEST_SUITE_P(
    DualParityGroups, DataPathProperty,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid2),
                       ::testing::Values(3, 5, 7)));

}  // namespace
}  // namespace ftms
