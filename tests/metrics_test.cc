#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"

namespace ftms {
namespace {

TEST(MetricsNamesTest, LabeledName) {
  EXPECT_EQ(LabeledName("ftms_reads_total", {}), "ftms_reads_total");
  EXPECT_EQ(LabeledName("ftms_reads_total", {{"scheme", "SR"}}),
            "ftms_reads_total{scheme=\"SR\"}");
  EXPECT_EQ(
      LabeledName("f", {{"a", "1"}, {"b", "2"}}),
      "f{a=\"1\",b=\"2\"}");
  EXPECT_EQ(IndexedName("ftms_disk_busy", "disk", 7),
            "ftms_disk_busy{disk=\"7\"}");
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ftms_a_total");
  Counter* again = registry.GetCounter("ftms_a_total");
  EXPECT_EQ(a, again);
  a->Add(3);
  a->Add();
  EXPECT_EQ(a->value(), 4);
  EXPECT_EQ(registry.size(), 1u);

  // Same name with a different kind is a registration error -> null.
  EXPECT_EQ(registry.GetGauge("ftms_a_total"), nullptr);
  EXPECT_EQ(registry.GetHistogram("ftms_a_total", 0, 1, 4), nullptr);
  EXPECT_EQ(registry.FindGauge("ftms_a_total"), nullptr);
  ASSERT_NE(registry.FindCounter("ftms_a_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("ftms_a_total")->value(), 4);
  EXPECT_EQ(registry.FindCounter("ftms_missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugeAndHistogram) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("ftms_g");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(registry.FindGauge("ftms_g")->value(), 2.5);

  HistogramCell* h = registry.GetHistogram("ftms_h", 0.0, 10.0, 10);
  ASSERT_NE(h, nullptr);
  h->Add(0.5);
  h->Add(5.5);
  h->Add(999.0);  // clamps into the last bucket
  h->Add(-3.0);   // clamps into the first bucket
  EXPECT_EQ(h->count(), 4);
  EXPECT_EQ(h->bucket(0), 2);
  EXPECT_EQ(h->bucket(5), 1);
  EXPECT_EQ(h->bucket(9), 1);
  EXPECT_DOUBLE_EQ(h->bucket_upper(9), 10.0);
}

TEST(MetricsRegistryTest, CounterAddsAreThreadCountInvariant) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ftms_conc_total");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([c] {
      for (int i = 0; i < 10000; ++i) c->Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), 40000);
}

TEST(MetricsRegistryTest, PrometheusText) {
  MetricsRegistry registry;
  registry.GetCounter(LabeledName("ftms_reads_total", {{"scheme", "SR"}}),
                      "reads issued")->Add(7);
  registry.GetGauge("ftms_streams")->Set(3);
  registry.GetHistogram("ftms_lat_us", 0.0, 4.0, 2)->Add(1.0);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE ftms_reads_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP ftms_reads_total reads issued"),
            std::string::npos);
  EXPECT_NE(text.find("ftms_reads_total{scheme=\"SR\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ftms_streams gauge"), std::string::npos);
  EXPECT_NE(text.find("ftms_streams 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ftms_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("ftms_lat_us_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ftms_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ftms_lat_us_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonObject) {
  MetricsRegistry registry;
  registry.GetCounter("ftms_b_total")->Add(2);
  registry.GetCounter(LabeledName("ftms_l_total", {{"scheme", "SR"}}))->Add(3);
  registry.GetHistogram("ftms_h", 0.0, 4.0, 4)->Add(1.5);
  const std::string json = registry.JsonObject("  ", "");
  EXPECT_NE(json.find("\"ftms_b_total\": 2"), std::string::npos);
  // Label quotes are escaped so the object stays parseable JSON.
  EXPECT_NE(json.find("\"ftms_l_total{scheme=\\\"SR\\\"}\": 3"),
            std::string::npos);
  EXPECT_EQ(json.find("{scheme=\"SR\"}\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"ftms_h_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ftms_h_p50\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  MetricsRegistry empty;
  EXPECT_EQ(empty.JsonObject(), "{}");
}

// JSON has no NaN or infinity: the dump writes null for them and still
// parses, while the Prometheus text spells them NaN, +Inf and -Inf.
TEST(MetricsRegistryTest, NonFiniteGaugesKeepBothDumpsParseable) {
  MetricsRegistry registry;
  registry.GetGauge("ftms_nan")->Set(std::numeric_limits<double>::quiet_NaN());
  registry.GetGauge("ftms_pos_inf")->Set(
      std::numeric_limits<double>::infinity());
  registry.GetGauge("ftms_neg_inf")->Set(
      -std::numeric_limits<double>::infinity());
  registry.GetGauge("ftms_finite")->Set(2.5);

  const StatusOr<JsonValue> parsed = JsonValue::Parse(registry.JsonObject());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << registry.JsonObject();
  for (const char* name : {"ftms_nan", "ftms_pos_inf", "ftms_neg_inf"}) {
    const JsonValue* value = parsed->Find(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_TRUE(value->is_null()) << name;
  }
  ASSERT_NE(parsed->Find("ftms_finite"), nullptr);
  EXPECT_EQ(parsed->Find("ftms_finite")->AsNumber(), 2.5);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("ftms_nan NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ftms_pos_inf +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ftms_neg_inf -Inf\n"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, WritePrometheusFile) {
  MetricsRegistry registry;
  registry.GetCounter("ftms_c_total")->Add(1);
  const std::string path = "/tmp/ftms_metrics_test.prom";
  ASSERT_TRUE(registry.WritePrometheusFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_FALSE(registry.WritePrometheusFile("/nonexistent/dir/x.prom").ok());
}

TEST(MetricsRegistryTest, GlobalToggle) {
  // The suite never sets FTMS_METRICS, so the global starts disabled;
  // restore that state to stay hermetic.
  EXPECT_EQ(MetricsRegistry::GlobalIfEnabled(), nullptr);
  MetricsRegistry::SetGlobalEnabled(true);
  ASSERT_NE(MetricsRegistry::GlobalIfEnabled(), nullptr);
  EXPECT_EQ(MetricsRegistry::GlobalIfEnabled(), &MetricsRegistry::Global());
  MetricsRegistry::SetGlobalEnabled(false);
  EXPECT_EQ(MetricsRegistry::GlobalIfEnabled(), nullptr);
}

}  // namespace
}  // namespace ftms
