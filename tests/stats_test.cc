#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ftms {
namespace {

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ConfidenceHalfWidth95(), 0.0);
}

TEST(StreamingStatsTest, MeanVarianceExtremes) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(StreamingStatsTest, MergeMatchesCombinedStream) {
  StreamingStats a;
  StreamingStats b;
  StreamingStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(StreamingStatsTest, ConfidenceShrinksWithSamples) {
  StreamingStats small;
  StreamingStats large;
  for (int i = 0; i < 10; ++i) small.Add(i % 3);
  for (int i = 0; i < 1000; ++i) large.Add(i % 3);
  EXPECT_GT(small.ConfidenceHalfWidth95(), large.ConfidenceHalfWidth95());
}

TEST(StreamingStatsTest, MergeWithEmptyOperands) {
  StreamingStats filled;
  for (int i = 1; i <= 4; ++i) filled.Add(i);
  const double mean = filled.mean();
  const double var = filled.variance();

  // empty.Merge(filled) adopts the filled stream wholesale.
  StreamingStats empty;
  empty.Merge(filled);
  EXPECT_EQ(empty.count(), 4);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
  EXPECT_DOUBLE_EQ(empty.variance(), var);
  EXPECT_EQ(empty.min(), 1.0);
  EXPECT_EQ(empty.max(), 4.0);

  // filled.Merge(empty) is a no-op.
  StreamingStats untouched;
  filled.Merge(untouched);
  EXPECT_EQ(filled.count(), 4);
  EXPECT_DOUBLE_EQ(filled.mean(), mean);
  EXPECT_DOUBLE_EQ(filled.variance(), var);

  // empty.Merge(empty) stays empty (and all accessors stay defined).
  StreamingStats a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  EXPECT_EQ(a.ConfidenceHalfWidth95(), 0.0);
}

}  // namespace
}  // namespace ftms
