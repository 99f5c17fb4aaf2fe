#include "layout/layout.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "layout/invariants.h"

namespace ftms {
namespace {

TEST(ClusteredLayoutTest, Figure3Placement) {
  // Figure 3: D = 10, C = 5, two clusters; object X (id 0) has home
  // cluster 0: X0..X3 on disks 0..3, parity X0p on disk 4; the next group
  // X4..X7 on disks 5..8, X4p on disk 9.
  auto layout = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  EXPECT_EQ(layout->num_clusters(), 2);
  EXPECT_EQ(layout->DataBlocksPerGroup(), 4);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(layout->DataLocation(0, t).disk, t);
  }
  EXPECT_EQ(layout->ParityLocation(0, 0).disk, 4);
  for (int t = 4; t < 8; ++t) {
    EXPECT_EQ(layout->DataLocation(0, t).disk, 5 + (t - 4));
  }
  EXPECT_EQ(layout->ParityLocation(0, 1).disk, 9);
  // Group 2 wraps back to cluster 0 (round-robin).
  EXPECT_EQ(layout->DataLocation(0, 8).disk, 0);
}

TEST(ClusteredLayoutTest, HomeClusterSpreadsObjects) {
  auto layout = CreateLayout(Scheme::kStreamingRaid, 20, 5).value();
  EXPECT_EQ(layout->HomeCluster(0), 0);
  EXPECT_EQ(layout->HomeCluster(1), 1);
  EXPECT_EQ(layout->HomeCluster(4), 0);
  EXPECT_EQ(layout->DataLocation(1, 0).cluster, 1);
}

TEST(ClusteredLayoutTest, RejectsBadGeometry) {
  EXPECT_FALSE(CreateLayout(Scheme::kStreamingRaid, 11, 5).ok());
  EXPECT_FALSE(CreateLayout(Scheme::kStreamingRaid, 10, 1).ok());
  EXPECT_FALSE(CreateLayout(Scheme::kStreamingRaid, -5, 5).ok());
}

TEST(ImprovedBandwidthLayoutTest, Figure8Placement) {
  // Figure 8: 8 disks, clusters of 4 (C = 5); object X (id 0): X0..X3 on
  // disks 0..3 of cluster 0, parity X0p on a disk of cluster 1.
  auto layout = CreateLayout(Scheme::kImprovedBandwidth, 8, 5).value();
  EXPECT_EQ(layout->num_clusters(), 2);
  EXPECT_EQ(layout->disks_per_cluster(), 4);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(layout->DataLocation(0, t).disk, t);
    EXPECT_EQ(layout->DataLocation(0, t).cluster, 0);
  }
  const BlockLocation parity = layout->ParityLocation(0, 0);
  EXPECT_EQ(parity.cluster, 1);
  EXPECT_GE(parity.disk, 4);
  EXPECT_LE(parity.disk, 7);
  EXPECT_TRUE(parity.is_parity);
}

TEST(ImprovedBandwidthLayoutTest, ParityRotatesOverNeighborDisks) {
  auto layout = CreateLayout(Scheme::kImprovedBandwidth, 12, 5).value();
  // Successive groups of one object land on successive clusters, and the
  // parity disk index within the neighbor cluster rotates.
  bool saw_different_index = false;
  int first_index = layout->ParityLocation(0, 0).disk % 4;
  for (int64_t g = 1; g < 8; ++g) {
    if (layout->ParityLocation(0, g).disk % 4 != first_index) {
      saw_different_index = true;
    }
  }
  EXPECT_TRUE(saw_different_index);
}

TEST(ImprovedBandwidthLayoutTest, RejectsSingleCluster) {
  EXPECT_FALSE(CreateLayout(Scheme::kImprovedBandwidth, 4, 5).ok());
  // 10 % 4 != 0
  EXPECT_FALSE(CreateLayout(Scheme::kImprovedBandwidth, 10, 5).ok());
}

TEST(LayoutFactoryTest, DispatchesOnScheme) {
  const auto sr = CreateLayout(Scheme::kStreamingRaid, 20, 5).value();
  EXPECT_TRUE(sr->Serves(Scheme::kStreamingRaid));
  const auto nc = CreateLayout(Scheme::kNonClustered, 20, 5).value();
  // SR, SG and NC share the clustered layout.
  EXPECT_TRUE(nc->Serves(Scheme::kStreamingRaid));
  const auto ib = CreateLayout(Scheme::kImprovedBandwidth, 20, 5).value();
  EXPECT_TRUE(ib->Serves(Scheme::kImprovedBandwidth));
  EXPECT_FALSE(ib->Serves(Scheme::kStreamingRaid));
}

TEST(NonStripedLayoutTest, GroupsStayOnHomeCluster) {
  // The striping-ablation layout: all groups of an object pinned to its
  // home cluster (used by bench_striping to demonstrate why the paper
  // stripes round-robin).
  auto layout =
      CreateLayout(Scheme::kStreamingRaid, 20, 5, /*striped=*/false).value();
  for (int obj : {0, 1, 3}) {
    const int home = layout->HomeCluster(obj);
    for (int64_t g = 0; g < 12; ++g) {
      EXPECT_EQ(layout->GroupCluster(obj, g), home);
      for (const BlockLocation& loc : layout->GroupDataLocations(obj, g)) {
        EXPECT_EQ(loc.cluster, home);
      }
      EXPECT_EQ(layout->ParityLocation(obj, g).cluster, home);
    }
  }
  // Structural invariants still hold (no duplicate disks per group).
  EXPECT_TRUE(CheckNoDuplicateDisksInGroup(*layout, 5, 20).ok());
  EXPECT_TRUE(CheckGroupWithinCluster(*layout, 5, 20).ok());
}

// Digest of every (disk, cluster, is_parity) the layout hands out for
// objects 0-9 x groups 0-39: each data block, the parity block and the Q
// block (a default location where there is none).
void FoldPlacement(const Layout& layout, uint64_t* h) {
  const auto mix = [h](int64_t v) {
    *h = (*h ^ static_cast<uint64_t>(v)) * 0x100000001b3ull;
  };
  const auto mix_location = [&mix](const BlockLocation& loc) {
    mix(loc.disk);
    mix(loc.cluster);
    mix(loc.is_parity ? 1 : 0);
  };
  const int per_group = layout.DataBlocksPerGroup();
  for (int obj = 0; obj < 10; ++obj) {
    for (int64_t g = 0; g < 40; ++g) {
      for (int i = 0; i < per_group; ++i) {
        mix_location(layout.DataLocation(obj, g * per_group + i));
      }
      mix_location(layout.ParityLocation(obj, g));
      mix_location(layout.QParityLocation(obj, g));
    }
  }
}

// Pins the placement of every scheme and of the non-striped ablation over
// the geometries the invariant sweeps below cover (C in {2,3,5,7,10}, C >=
// 3 for P+Q, 2/4/9 clusters), so a change to the placement arithmetic
// cannot move a block unnoticed. SR, SG and NC share one layout.
TEST(LayoutPlacementTest, MatchesPinnedDigests) {
  const struct {
    Scheme scheme;
    bool striped;
    uint64_t digest;
  } kCases[] = {
      {Scheme::kStreamingRaid, true, 0x60ce8a98cbe84a61ull},
      {Scheme::kStaggeredGroup, true, 0x60ce8a98cbe84a61ull},
      {Scheme::kNonClustered, true, 0x60ce8a98cbe84a61ull},
      {Scheme::kImprovedBandwidth, true, 0xe5fc6c15fbb36c0full},
      {Scheme::kStreamingRaid2, true, 0x52a81d9c187b0f31ull},
      {Scheme::kNonClustered2, true, 0x52a81d9c187b0f31ull},
      {Scheme::kStreamingRaid, false, 0x16b49f1a84e36d45ull},
  };
  for (const auto& c : kCases) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (int group_size : {2, 3, 5, 7, 10}) {
      if (IsDualParity(c.scheme) && group_size < 3) continue;
      const int per_cluster = c.scheme == Scheme::kImprovedBandwidth
                                  ? group_size - 1
                                  : group_size;
      for (int clusters : {2, 4, 9}) {
        FoldPlacement(*CreateLayout(c.scheme, per_cluster * clusters,
                                    group_size, c.striped)
                           .value(),
                      &h);
      }
    }
    EXPECT_EQ(h, c.digest) << SchemeAbbrev(c.scheme)
                           << (c.striped ? "" : " non-striped");
  }
}

TEST(LayoutRulesTest, DedicatedParitySlotsFollowTheDataSlots) {
  const auto sr = CreateLayout(Scheme::kStreamingRaid, 20, 5).value();
  EXPECT_EQ(sr->parity_slots(), 1);
  EXPECT_EQ(sr->DedicatedParityDisk(0, 0), 4);
  EXPECT_EQ(sr->DedicatedParityDisk(3, 0), 19);
  EXPECT_TRUE(sr->IsParityDisk(9));
  EXPECT_FALSE(sr->IsParityDisk(8));
  const auto pq = CreateLayout(Scheme::kNonClustered2, 20, 5).value();
  EXPECT_EQ(pq->parity_slots(), 2);
  EXPECT_EQ(pq->DedicatedParityDisk(1, 0), pq->ParityLocation(1, 0).disk);
  EXPECT_EQ(pq->DedicatedParityDisk(1, 1), pq->QParityLocation(1, 0).disk);
  EXPECT_TRUE(pq->IsParityDisk(8));
  EXPECT_FALSE(pq->IsParityDisk(7));
  const auto ib = CreateLayout(Scheme::kImprovedBandwidth, 12, 5).value();
  EXPECT_EQ(ib->parity_slots(), 0);
  for (int d = 0; d < 12; ++d) EXPECT_FALSE(ib->IsParityDisk(d));
}

TEST(LayoutRulesTest, RebuildSources) {
  const auto sr = CreateLayout(Scheme::kStreamingRaid, 10, 5).value();
  EXPECT_EQ(sr->RebuildSources(6), (std::vector<int>{5, 7, 8, 9}));
  // IB reads the rest of the cluster and the next cluster, which holds
  // the cluster's parity.
  const auto ib = CreateLayout(Scheme::kImprovedBandwidth, 12, 5).value();
  EXPECT_EQ(ib->RebuildSources(9),
            (std::vector<int>{8, 10, 11, 0, 1, 2, 3}));
}

TEST(LayoutRulesTest, LosesGroupWhenMoreUnitsAreDownThanParityBlocks) {
  const auto sr = CreateLayout(Scheme::kStreamingRaid, 20, 5).value();
  EXPECT_FALSE(sr->LosesGroup(std::vector<int>{1, 1, 1, 1}));
  EXPECT_TRUE(sr->LosesGroup(std::vector<int>{0, 0, 2, 0}));
  const auto pq = CreateLayout(Scheme::kStreamingRaid2, 20, 5).value();
  EXPECT_FALSE(pq->LosesGroup(std::vector<int>{2, 2, 2, 2}));
  EXPECT_TRUE(pq->LosesGroup(std::vector<int>{0, 3, 0, 0}));
  EXPECT_TRUE(pq->LosesGroupAt(std::vector<int>{0, 3, 0, 0}, 1));
  EXPECT_FALSE(pq->LosesGroupAt(std::vector<int>{0, 3, 0, 0}, 2));
  const auto ib = CreateLayout(Scheme::kImprovedBandwidth, 16, 5).value();
  EXPECT_TRUE(ib->LosesGroup(std::vector<int>{2, 0, 0, 0}));
  EXPECT_TRUE(ib->LosesGroup(std::vector<int>{0, 1, 1, 0}));
  EXPECT_TRUE(ib->LosesGroup(std::vector<int>{1, 0, 0, 1}));  // ring wraps
  EXPECT_FALSE(ib->LosesGroup(std::vector<int>{1, 0, 1, 0}));
  EXPECT_TRUE(ib->LosesGroupAt(std::vector<int>{1, 0, 0, 1}, 0));
  EXPECT_FALSE(ib->LosesGroupAt(std::vector<int>{1, 0, 0, 1}, 1));
}

TEST(LayoutRulesTest, CheckObjectBoundsTheArithmeticDomain) {
  MediaObject object;
  object.num_tracks = Layout::kMaxTracks;
  EXPECT_TRUE(Layout::CheckObject(object).ok());
  object.num_tracks = Layout::kMaxTracks + 1;
  EXPECT_EQ(Layout::CheckObject(object).code(),
            StatusCode::kInvalidArgument);
  object.num_tracks = 1;
  object.id = -1;
  EXPECT_EQ(Layout::CheckObject(object).code(),
            StatusCode::kInvalidArgument);
}

// Property sweep: structural invariants hold for every scheme and a range
// of geometries (Observation 1 et al., see invariants.h).
class LayoutInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, int, int>> {};

TEST_P(LayoutInvariants, AllStructuralChecksPass) {
  const auto [scheme, c, clusters] = GetParam();
  const int disks = (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) *
                    clusters;
  auto layout = CreateLayout(scheme, disks, c).value();

  constexpr int kObjects = 7;
  constexpr int64_t kGroups = 40;
  EXPECT_TRUE(
      CheckNoDuplicateDisksInGroup(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckRoundRobinGroups(*layout, kObjects, kGroups).ok());
  if (scheme == Scheme::kImprovedBandwidth) {
    EXPECT_TRUE(CheckParityOnNextCluster(*layout, kObjects, kGroups).ok());
  } else {
    EXPECT_TRUE(CheckGroupWithinCluster(*layout, kObjects, kGroups).ok());
  }
  // Round-robin striping balances data over all data-role disks; over a
  // multiple of num_clusters groups the balance is exact.
  const int64_t balanced_groups = 10 * layout->num_clusters();
  EXPECT_TRUE(
      CheckDataLoadBalance(*layout, /*object_id=*/3, balanced_groups, 0)
          .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LayoutInvariants,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kNonClustered,
                                         Scheme::kImprovedBandwidth),
                       ::testing::Values(2, 3, 5, 7, 10),
                       ::testing::Values(2, 4, 9)));

// Dual-parity geometries (C >= 3): the shared structural checks plus the
// P/Q placement invariant.
class DualParityLayoutInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, int, int>> {};

TEST_P(DualParityLayoutInvariants, StructureAndParityPlacement) {
  const auto [scheme, c, clusters] = GetParam();
  auto layout = CreateLayout(scheme, c * clusters, c).value();
  ASSERT_EQ(layout->parity_blocks(), 2);
  constexpr int kObjects = 7;
  constexpr int64_t kGroups = 40;
  EXPECT_TRUE(
      CheckNoDuplicateDisksInGroup(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckRoundRobinGroups(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckGroupWithinCluster(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckDualParityDisks(*layout, kObjects, kGroups).ok());
  const int64_t balanced_groups = 10 * layout->num_clusters();
  EXPECT_TRUE(
      CheckDataLoadBalance(*layout, /*object_id=*/3, balanced_groups, 0)
          .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DualParityLayoutInvariants,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid2,
                                         Scheme::kNonClustered2),
                       ::testing::Values(3, 5, 7, 10),
                       ::testing::Values(2, 4, 9)));

}  // namespace
}  // namespace ftms
