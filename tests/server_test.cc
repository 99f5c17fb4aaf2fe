#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/units.h"

namespace ftms {
namespace {

ServerConfig SmallConfig(Scheme scheme) {
  ServerConfig config;
  config.scheme = scheme;
  config.parity_group_size = 5;
  config.params.num_disks =
      scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  config.params.k_reserve = 2;
  return config;
}

MediaObject SmallMovie(int id) {
  MediaObject obj;
  obj.id = id;
  obj.name = "movie_" + std::to_string(id);
  obj.rate_mb_s = 0.1875;
  obj.num_tracks = 64;
  return obj;
}

TEST(ServerTest, CreateValidatesConfig) {
  ServerConfig config = SmallConfig(Scheme::kStreamingRaid);
  EXPECT_TRUE(MultimediaServer::Create(config).ok());
  config.parity_group_size = 1;
  EXPECT_FALSE(MultimediaServer::Create(config).ok());
  config = SmallConfig(Scheme::kStreamingRaid);
  config.params.num_disks = 11;  // not a multiple of C
  EXPECT_FALSE(MultimediaServer::Create(config).ok());
}

TEST(ServerTest, EndToEndPlayback) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  ASSERT_TRUE(server->AddObject(SmallMovie(1)).ok());
  const StreamId id = server->StartStream(1).value();
  server->RunCycles(20);
  const Stream* s = server->scheduler().FindStream(id);
  EXPECT_EQ(s->state(), StreamState::kCompleted);
  EXPECT_EQ(s->hiccup_count(), 0);
  EXPECT_GT(server->NowSeconds(), 0.0);
  EXPECT_NE(server->Summary().find("hiccups 0"), std::string::npos);
}

TEST(ServerTest, AdmissionReleasesOnCompletion) {
  ServerConfig config = SmallConfig(Scheme::kStreamingRaid);
  config.admission_override = 2;
  auto server = std::move(MultimediaServer::Create(config).value());
  ASSERT_TRUE(server->AddObject(SmallMovie(1)).ok());
  EXPECT_TRUE(server->StartStream(1).ok());
  EXPECT_TRUE(server->StartStream(1).ok());
  EXPECT_EQ(server->StartStream(1).status().code(),
            StatusCode::kResourceExhausted);
  server->RunCycles(25);  // both streams complete
  EXPECT_EQ(server->admission().active(), 0);
  EXPECT_TRUE(server->StartStream(1).ok());
}

TEST(ServerTest, UnknownObjectRejected) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  EXPECT_EQ(server->StartStream(42).status().code(),
            StatusCode::kNotFound);
}

TEST(ServerTest, WrongRateObjectRejected) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  MediaObject obj = SmallMovie(1);
  obj.rate_mb_s = kMpeg2RateMbS;
  EXPECT_EQ(server->AddObject(obj).code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, PurgeRequiresNoActiveStreams) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  ASSERT_TRUE(server->AddObject(SmallMovie(1)).ok());
  server->StartStream(1).value();
  EXPECT_EQ(server->RemoveObject(1).code(),
            StatusCode::kFailedPrecondition);
  server->RunCycles(25);
  EXPECT_TRUE(server->RemoveObject(1).ok());
}

TEST(ServerTest, FailureInjectionAndCatastropheDetection) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  EXPECT_FALSE(server->FailDisk(-1).ok());
  EXPECT_TRUE(server->FailDisk(0).ok());
  EXPECT_FALSE(server->CatastrophicFailure());
  EXPECT_TRUE(server->FailDisk(1).ok());  // same cluster
  EXPECT_TRUE(server->CatastrophicFailure());
  EXPECT_TRUE(server->RepairDisk(1).ok());
  EXPECT_FALSE(server->CatastrophicFailure());
}

TEST(ServerTest, IbAdjacentClusterCatastrophe) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kImprovedBandwidth))
          .value());
  EXPECT_TRUE(server->FailDisk(0).ok());   // cluster 0
  EXPECT_FALSE(server->CatastrophicFailure());
  EXPECT_TRUE(server->FailDisk(5).ok());   // cluster 1 (adjacent)
  EXPECT_TRUE(server->CatastrophicFailure());
}

// P+Q clusters repair any two erasures per group: two failures in one
// cluster leave every group recoverable (and rebuildable); only a third
// loses a group.
TEST(ServerTest, DualParitySurvivesTwoFailuresInACluster) {
  for (Scheme scheme : kDualParitySchemes) {
    ServerConfig config = SmallConfig(scheme);
    config.parity_group_size = 6;
    config.params.num_disks = 24;
    auto server = std::move(MultimediaServer::Create(config).value());
    ASSERT_TRUE(server->FailDisk(0).ok());
    ASSERT_TRUE(server->FailDisk(1).ok());  // same cluster
    EXPECT_FALSE(server->CatastrophicFailure()) << SchemeAbbrev(scheme);
    EXPECT_TRUE(server->StartRebuild(0).ok()) << SchemeAbbrev(scheme);
    ASSERT_TRUE(server->FailDisk(2).ok());  // a third in the cluster
    EXPECT_TRUE(server->CatastrophicFailure()) << SchemeAbbrev(scheme);
  }
}

// IB disks hold their own cluster's data and the previous cluster's
// parity: two failures in one cluster or in adjacent clusters (the ring
// wraps) lose a group, two in clusters further apart do not.
TEST(ServerTest, IbCatastropheFollowsClusterAdjacency) {
  ServerConfig config = SmallConfig(Scheme::kImprovedBandwidth);
  config.params.num_disks = 16;  // four clusters of four
  const struct {
    int a, b;
    bool catastrophic;
  } kCases[] = {{0, 1, true},    // same cluster
                {0, 4, true},    // clusters 0 and 1
                {3, 12, true},   // clusters 0 and 3 (wrap-around)
                {0, 8, false},   // clusters 0 and 2
                {5, 13, false}}; // clusters 1 and 3
  for (const auto& c : kCases) {
    auto server = std::move(MultimediaServer::Create(config).value());
    ASSERT_TRUE(server->FailDisk(c.a).ok());
    EXPECT_FALSE(server->CatastrophicFailure());
    ASSERT_TRUE(server->FailDisk(c.b).ok());
    EXPECT_EQ(server->CatastrophicFailure(), c.catastrophic)
        << "disks " << c.a << " and " << c.b;
  }
}

// Placement divides 32-bit values: objects it cannot address are turned
// away at the door rather than served from the wrong disks.
TEST(ServerTest, RejectsObjectsOutsideThePlacementDomain) {
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  MediaObject negative = SmallMovie(-3);
  EXPECT_EQ(server->AddObject(negative).code(),
            StatusCode::kInvalidArgument);
  MediaObject huge = SmallMovie(2);
  huge.num_tracks = INT64_C(1) << 32;
  EXPECT_EQ(server->AddObject(huge).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(server->AddObject(SmallMovie(3)).ok());
}

TEST(ServerTest, StatusLinePinsItsFormat) {
  EventJournal journal;
  QosLedger ledger;
  ledger.set_journal(&journal);
  ServerConfig config = SmallConfig(Scheme::kNonClustered);
  config.nc_transition = NcTransition::kImmediateShift;
  config.slots_per_disk = 1;
  config.journal = &journal;
  config.ledger = &ledger;
  auto server = std::move(MultimediaServer::Create(config).value());
  // The Figure 6 drill: three streams staggered on cluster 0 (even
  // object ids), so failing disk 2 mid-group is guaranteed to hiccup.
  for (int id = 2; id <= 6; id += 2) {
    ASSERT_TRUE(server->AddObject(SmallMovie(id)).ok());
    server->StartStream(id).value();
    server->RunCycles(1);
  }

  // Clean run: StatusLine is Summary plus the two QoS fields, zeroed.
  std::string line = server->StatusLine();
  EXPECT_EQ(line.find(server->Summary()), 0u);
  EXPECT_NE(line.find(", worst-stream hiccups 0"), std::string::npos);
  EXPECT_NE(line.find(", slo breaches 0"), std::string::npos);

  // A strict zero-hiccup SLO plus an NC transition: the worst stream and
  // the breach count both surface in the line.
  ledger.SetSlos({{"zero_hiccups", SloKind::kMaxHiccupsPerStream, 0.0,
                   /*per_failure=*/false}});
  ASSERT_TRUE(server->FailDisk(2).ok());
  server->RunCycles(12);
  line = server->StatusLine();
  int64_t worst = 0;
  for (const auto& stream : server->scheduler().streams()) {
    worst = std::max(worst, stream->hiccup_count());
  }
  EXPECT_GT(worst, 0);
  EXPECT_NE(line.find(", worst-stream hiccups " + std::to_string(worst)),
            std::string::npos);
  EXPECT_NE(line.find(", slo breaches 1"), std::string::npos);
}

TEST(ServerTest, StatusLineWorksWithoutALedger) {
  // QoS off (no FTMS_QOS, no injected sinks): StatusLine falls back to
  // an on-the-fly evaluation against the scheme's default SLOs.
  auto server = std::move(
      MultimediaServer::Create(SmallConfig(Scheme::kStreamingRaid))
          .value());
  ASSERT_TRUE(server->AddObject(SmallMovie(1)).ok());
  server->StartStream(1).value();
  server->RunCycles(5);
  const std::string line = server->StatusLine();
  EXPECT_NE(line.find("worst-stream hiccups 0"), std::string::npos);
  EXPECT_NE(line.find("slo breaches 0"), std::string::npos);
}

TEST(ServerTest, AllSchemesServeCleanly) {
  for (Scheme scheme : kAllSchemes) {
    auto server =
        std::move(MultimediaServer::Create(SmallConfig(scheme)).value());
    ASSERT_TRUE(server->AddObject(SmallMovie(1)).ok());
    const StreamId id = server->StartStream(1).value();
    server->RunCycles(80);
    const Stream* s = server->scheduler().FindStream(id);
    EXPECT_EQ(s->state(), StreamState::kCompleted) << SchemeName(scheme);
    EXPECT_EQ(s->hiccup_count(), 0) << SchemeName(scheme);
  }
}

}  // namespace
}  // namespace ftms
