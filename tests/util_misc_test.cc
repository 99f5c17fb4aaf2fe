#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/disk_set.h"
#include "util/json.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace ftms {
namespace {

TEST(UnitsTest, RateConversions) {
  EXPECT_DOUBLE_EQ(MbitsToMBytes(1.5), 0.1875);
  EXPECT_DOUBLE_EQ(MbitsToMBytes(4.5), 0.5625);
  EXPECT_DOUBLE_EQ(MBytesToMbits(0.1875), 1.5);
  EXPECT_DOUBLE_EQ(kMpeg1RateMbS, 0.1875);
  EXPECT_DOUBLE_EQ(kMpeg2RateMbS, 0.5625);
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(HoursToYears(8760.0), 1.0);
  EXPECT_DOUBLE_EQ(YearsToHours(2.0), 17520.0);
  EXPECT_DOUBLE_EQ(HoursToYears(YearsToHours(123.4)), 123.4);
  EXPECT_DOUBLE_EQ(KilobytesToMegabytes(50.0), 0.05);
}

TEST(LogTest, LevelFiltering) {
  // Capture stderr around a filtered and an emitted message.
  SetLogLevel(LogLevel::kWarning);
  testing::internal::CaptureStderr();
  FTMS_LOG(Debug) << "hidden";
  FTMS_LOG(Warning) << "visible " << 42;
  std::string output = testing::internal::GetCapturedStderr();
  EXPECT_EQ(output.find("hidden"), std::string::npos);
  EXPECT_NE(output.find("visible 42"), std::string::npos);
  EXPECT_NE(output.find("[W "), std::string::npos);

  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  FTMS_LOG(Debug) << "now shown";
  output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("now shown"), std::string::npos);
  SetLogLevel(LogLevel::kWarning);  // restore default
}

TEST(LogTest, ParseLogLevel) {
  // Names, case-insensitive (what FTMS_LOG_LEVEL accepts at startup).
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARNING"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("Error"), LogLevel::kError);
  // Numeric forms.
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("1"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("3"), LogLevel::kError);
  // Garbage is rejected, not guessed.
  EXPECT_EQ(ParseLogLevel(""), std::nullopt);
  EXPECT_EQ(ParseLogLevel("verbose"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("4"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("-1"), std::nullopt);
  EXPECT_EQ(ParseLogLevel(" info"), std::nullopt);
}

TEST(LogTest, IncludesSourceLocation) {
  SetLogLevel(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  FTMS_LOG(Info) << "located";
  const std::string output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("util_misc_test.cc"), std::string::npos);
  SetLogLevel(LogLevel::kWarning);
}

TEST(DiskSetTest, AddRemoveContains) {
  DiskSet set(8);
  EXPECT_TRUE(set.empty());
  set.Add(3);
  set.Add(3);  // idempotent
  set.Add(7);
  EXPECT_EQ(set.count(), 2);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(4));
  set.Remove(3);
  set.Remove(3);  // idempotent
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.count(), 1);
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(7));
}

TEST(DiskSetTest, GrowsBeyondInitialSizeAndIgnoresNegatives) {
  DiskSet set(2);
  EXPECT_FALSE(set.Contains(100));  // beyond size reads as absent
  set.Add(100);
  EXPECT_TRUE(set.Contains(100));
  set.Add(-1);  // no-op
  set.Remove(-1);
  EXPECT_FALSE(set.Contains(-1));
  EXPECT_EQ(set.count(), 1);
}

TEST(DiskSetTest, InitializerListMatchesTestLiterals) {
  const DiskSet empty = {};
  EXPECT_TRUE(empty.empty());
  const DiskSet pair = {1, 2};
  EXPECT_TRUE(pair.Contains(1));
  EXPECT_TRUE(pair.Contains(2));
  EXPECT_FALSE(pair.Contains(0));
  EXPECT_EQ(pair.count(), 2);
}

TEST(ParallelForPartitionTest, ChunksAreDenseAndCoverTheRange) {
  ThreadPool pool(8);
  // 9 elements over 8 workers: ceil division gives 2-element chunks, so
  // only 5 chunks run — no empty tail chunks reach the body.
  std::vector<std::atomic<int>> covered(9);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, 9, [&](int64_t lo, int64_t hi) {
    ASSERT_LT(lo, hi);
    ++calls;
    for (int64_t i = lo; i < hi; ++i) ++covered[static_cast<size_t>(i)];
  });
  EXPECT_EQ(calls.load(), 5);
  for (auto& c : covered) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForPartitionTest, NullPoolAndEmptyRangesRunInline) {
  int calls = 0;
  int64_t seen_lo = -1;
  int64_t seen_hi = -1;
  ParallelFor(nullptr, 2, 40, [&](int64_t lo, int64_t hi) {
    ++calls;
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 2);
  EXPECT_EQ(seen_hi, 40);
  ParallelFor(nullptr, 7, 7, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // empty range: body never runs
}

TEST(ParallelForPartitionTest, PartitionIsAFunctionOfRangeNotThreads) {
  // The chunk boundaries for a given (range, pool size) are fixed, so
  // results written by index are bit-identical run to run.
  ThreadPool pool(4);
  const auto bounds_of_one_run = [&pool] {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> bounds;
    ParallelFor(&pool, 10, 110, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      bounds.emplace_back(lo, hi);
    });
    std::sort(bounds.begin(), bounds.end());
    return bounds;
  };
  const auto bounds = bounds_of_one_run();
  EXPECT_EQ(bounds_of_one_run(), bounds);
  ASSERT_EQ(bounds.size(), 4u);
  int64_t expect_lo = 10;
  for (const auto& [lo, hi] : bounds) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_EQ(hi - lo, 25);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 110);
}

std::string JsonString(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

std::string JsonNumber(double v, int digits) {
  std::string out;
  AppendJsonNumber(&out, v, digits);
  return out;
}

std::string JsonInt(int64_t v) {
  std::string out;
  AppendJsonInt(&out, v);
  return out;
}

TEST(JsonReaderTest, AsIntFallsBackOutsideTheInt64Range) {
  // 9.3e18 is just past INT64_MAX (about 9.22e18); 1e999 parses as inf.
  const StatusOr<JsonValue> parsed =
      JsonValue::Parse("[1e300, -1e300, 1e999, 9.3e18, -9.3e18]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const JsonValue& v : parsed->items()) {
    ASSERT_TRUE(v.is_number());
    EXPECT_EQ(v.AsInt(7), 7) << v.AsNumber();
  }
  // The range ends are exact: -2^63 converts, 2^63 does not.
  const StatusOr<JsonValue> edges =
      JsonValue::Parse("[-9223372036854775808, 9223372036854775808, 2.9]");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges->items()[0].AsInt(7), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(edges->items()[1].AsInt(7), 7);
  EXPECT_EQ(edges->items()[2].AsInt(7), 2);
}

TEST(JsonWriterTest, EscapesEverySpecialByte) {
  EXPECT_EQ(JsonString(""), R"("")");
  EXPECT_EQ(JsonString("a\"b"), R"("a\"b")");
  EXPECT_EQ(JsonString("a\\b"), R"("a\\b")");
  EXPECT_EQ(JsonString("a\nb"), R"("a\nb")");
  EXPECT_EQ(JsonString("a\tb"), R"("a\tb")");
  // Every other byte below 0x20 takes the \u00XX form (lower-case hex).
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n' || c == '\t') continue;
    char want[16];
    std::snprintf(want, sizeof(want), "\"\\u%04x\"", c);
    EXPECT_EQ(JsonString(std::string(1, static_cast<char>(c))), want) << c;
  }
  // 0x7F and above are not control bytes in JSON.
  EXPECT_EQ(JsonString("\x7f"), "\"\x7f\"");
}

TEST(JsonWriterTest, MultiByteUtf8PassesThroughUnchanged) {
  const std::string s = "caf\xC3\xA9 \xE2\x80\x94 \xF0\x9F\x8E\xAC";
  EXPECT_EQ(JsonString(s), "\"" + s + "\"");
}

TEST(JsonWriterTest, StringsRoundTripThroughTheReader) {
  std::string all(1, '\0');
  for (int c = 1; c < 0x80; ++c) all.push_back(static_cast<char>(c));
  all += "\xC3\xA9\xE2\x80\x94";
  const StatusOr<JsonValue> parsed = JsonValue::Parse(JsonString(all));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->AsString(), all);
}

TEST(JsonWriterTest, NumberForms) {
  EXPECT_EQ(JsonNumber(0, 9), "0");
  EXPECT_EQ(JsonNumber(-0.0, 9), "-0");
  EXPECT_EQ(JsonNumber(3, 6), "3");
  // Integral values below 1e15 never take an exponent, at either digits.
  EXPECT_EQ(JsonNumber(1e6, 6), "1000000");
  EXPECT_EQ(JsonNumber(-123456789012345, 6), "-123456789012345");
  EXPECT_EQ(JsonNumber(1e15, 6), "1e+15");
  EXPECT_EQ(JsonNumber(1e15, 9), "1e+15");
  EXPECT_EQ(JsonNumber(1.0 / 3, 6), "0.333333");
  EXPECT_EQ(JsonNumber(1.0 / 3, 9), "0.333333333");
  EXPECT_EQ(JsonNumber(2.5e-7, 6), "2.5e-07");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN(), 9), "nan");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity(), 6), "inf");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity(), 9),
            "-inf");
}

TEST(JsonWriterTest, NumbersMatchPrintf) {
  // The exporters printed through "%.0f" / "%.<digits>g" before sharing
  // this writer; their bytes must not move.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -7.0,
                           0.5,
                           1.0 / 3,
                           -2.0 / 3,
                           123456.5,
                           999999.5,
                           1e6 + 0.25,
                           12345678.9,
                           1e14 + 1,
                           1e15 - 1,
                           1e15,
                           1e300,
                           -1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           nan,
                           -nan};
  for (const double v : values) {
    for (const int digits : {6, 9}) {
      char want[64];
      if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(want, sizeof(want), "%.0f", v);
      } else {
        std::snprintf(want, sizeof(want), "%.*g", digits, v);
      }
      EXPECT_EQ(JsonNumber(v, digits), want) << v << " at " << digits;
    }
  }
}

TEST(JsonWriterTest, IntExtremes) {
  EXPECT_EQ(JsonInt(0), "0");
  EXPECT_EQ(JsonInt(-42), "-42");
  EXPECT_EQ(JsonInt(INT64_MAX), "9223372036854775807");
  EXPECT_EQ(JsonInt(INT64_MIN), "-9223372036854775808");
}

TEST(JsonWriterTest, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/util_misc_test_text.txt";
  constexpr char kText[] = "line one\nline two\0tail";
  const std::string text(kText, sizeof(kText) - 1);
  ASSERT_TRUE(WriteTextFile(path, text).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read(64, '\0');
  read.resize(std::fread(read.data(), 1, read.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(read, text);
}

TEST(JsonWriterTest, WriteTextFileReportsAnUnwritablePath) {
  const Status status = WriteTextFile("/nonexistent/dir/x", "text");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.ToString().find("/nonexistent/dir/x"), std::string::npos);
}

}  // namespace
}  // namespace ftms
