#include "src/obs/export.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/metrics.h"

namespace firehose {
namespace obs {
namespace {

// --- Prometheus text format --------------------------------------------------

TEST(ExportPrometheusTest, GoldenCounterAndGauge) {
  MetricsRegistry registry;
  registry.GetCounter("posts.in")->Add(7);
  Gauge* bins = registry.GetGauge("bins");
  bins->Set(3);
  bins->Set(2);
  // Names sanitize (`.` -> `_`), gain the firehose_ prefix, and sort.
  const std::string expected =
      "# TYPE firehose_bins gauge\n"
      "firehose_bins 2\n"
      "# TYPE firehose_bins_high_water gauge\n"
      "firehose_bins_high_water 3\n"
      "# TYPE firehose_posts_in counter\n"
      "firehose_posts_in 7\n";
  EXPECT_EQ(ExportPrometheus(registry), expected);
}

TEST(ExportPrometheusTest, HistogramIsCumulativeWithInfEdge) {
  MetricsRegistry registry;
  LogHistogram* histogram = registry.GetHistogram("lat");
  histogram->Record(1);
  histogram->Record(1024);
  histogram->Record(1024);
  const std::string out = ExportPrometheus(registry);
  EXPECT_NE(out.find("# TYPE firehose_lat histogram"), std::string::npos);
  // Two occupied buckets, emitted sparsely with cumulative counts.
  EXPECT_NE(out.find("firehose_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(out.find("firehose_lat_sum 2049"), std::string::npos);
  EXPECT_NE(out.find("firehose_lat_count 3"), std::string::npos);
  // The bucket holding the two 1024 samples is cumulative: "} 3".
  EXPECT_NE(out.find("\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("\"} 3\n"), std::string::npos);
}

TEST(ExportPrometheusTest, DropsTimingMetricsOnRequest) {
  MetricsRegistry registry;
  registry.GetCounter("stable")->Add(1);
  registry.GetGauge("wall_ns", /*timing=*/true)->Set(123456);
  const std::string with = ExportPrometheus(registry);
  EXPECT_NE(with.find("firehose_wall_ns"), std::string::npos);
  const std::string without =
      ExportPrometheus(registry, ExportOptions{/*include_timing=*/false});
  EXPECT_EQ(without.find("firehose_wall_ns"), std::string::npos);
  EXPECT_NE(without.find("firehose_stable 1"), std::string::npos);
}

TEST(ExportPrometheusTest, HelpLineIsEmittedAndEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("posts.in")->Add(1);
  registry.SetHelp("posts.in", "posts accepted\nby the \"ingest\" \\ stage");
  const std::string expected =
      "# HELP firehose_posts_in posts accepted\\nby the \"ingest\" \\\\ "
      "stage\n"
      "# TYPE firehose_posts_in counter\n"
      "firehose_posts_in 1\n";
  EXPECT_EQ(ExportPrometheus(registry), expected);
}

TEST(ExportPrometheusTest, NoHelpMeansNoHelpLine) {
  MetricsRegistry registry;
  registry.GetCounter("posts.in")->Add(1);
  EXPECT_EQ(ExportPrometheus(registry),
            "# TYPE firehose_posts_in counter\nfirehose_posts_in 1\n");
}

TEST(PrometheusEscapingTest, HostileLabelValues) {
  // Exposition format: label values escape backslash, double quote, and
  // newline; everything else passes through byte-for-byte.
  EXPECT_EQ(PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(PrometheusEscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(PrometheusEscapeLabelValue(""), "");
}

TEST(PrometheusEscapingTest, HostileHelpStrings) {
  // HELP lines escape backslash and newline but NOT double quotes.
  EXPECT_EQ(PrometheusEscapeHelp("plain help"), "plain help");
  EXPECT_EQ(PrometheusEscapeHelp("a\"b"), "a\"b");
  EXPECT_EQ(PrometheusEscapeHelp("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeHelp("line one\nline two"),
            "line one\\nline two");
}

// --- JSON snapshot -----------------------------------------------------------

TEST(ExportJsonTest, RoundTripsRecordedValues) {
  MetricsRegistry registry;
  registry.GetCounter("pipeline.posts_in")->Add(100);
  registry.GetGauge("live.queue_depth")->Set(-2);
  LogHistogram* histogram = registry.GetHistogram("cmp");
  for (uint64_t v = 1; v <= 4; ++v) histogram->Record(v);
  const std::string json = ExportJson(registry);

  EXPECT_NE(json.find("\"schema\": \"firehose.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pipeline.posts_in\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"live.queue_depth\": {\"value\": -2, "
                      "\"high_water\": 0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 4, \"sum\": 10, \"max\": 4"),
            std::string::npos);
  // Sparse buckets as [index, count] pairs; value 1 lands in bucket 0.
  EXPECT_NE(json.find("\"buckets\": [[0, 1], "), std::string::npos);
}

TEST(ExportJsonTest, EmptyRegistryIsWellFormed) {
  MetricsRegistry registry;
  const std::string json = ExportJson(registry);
  EXPECT_EQ(json,
            "{\n\"schema\": \"firehose.metrics.v1\",\n"
            "\"counters\": {},\n\"gauges\": {},\n\"histograms\": {}\n}\n");
}

TEST(ExportJsonTest, RepeatedExportIsByteStable) {
  MetricsRegistry registry;
  registry.GetCounter("b")->Add(2);
  registry.GetCounter("a")->Add(1);
  registry.GetHistogram("h")->Record(77);
  const std::string first = ExportJson(registry);
  const std::string second = ExportJson(registry);
  EXPECT_EQ(first, second);
}

TEST(ExportJsonTest, RegistrationOrderDoesNotChangeBytes) {
  MetricsRegistry forward, backward;
  forward.GetCounter("alpha")->Add(1);
  forward.GetCounter("beta")->Add(2);
  forward.GetGauge("gamma")->Set(3);
  backward.GetGauge("gamma")->Set(3);
  backward.GetCounter("beta")->Add(2);
  backward.GetCounter("alpha")->Add(1);
  EXPECT_EQ(ExportJson(forward), ExportJson(backward));
  EXPECT_EQ(ExportPrometheus(forward), ExportPrometheus(backward));
}

TEST(ExportJsonTest, DropsTimingMetricsOnRequest) {
  MetricsRegistry registry;
  registry.GetCounter("deterministic")->Add(5);
  registry.GetHistogram("latency_ns", /*timing=*/true)->Record(1000);
  const std::string without =
      ExportJson(registry, ExportOptions{/*include_timing=*/false});
  EXPECT_EQ(without.find("latency_ns"), std::string::npos);
  EXPECT_NE(without.find("\"deterministic\": 5"), std::string::npos);
  // Dropping a histogram leaves the histograms section empty but valid.
  EXPECT_NE(without.find("\"histograms\": {}"), std::string::npos);
}

TEST(ExportJsonTest, MergedShardRegistriesExportIdenticalToDirect) {
  // Per-shard registries merged in shard order must export the same
  // bytes as recording into one registry.
  MetricsRegistry shard0, shard1, merged, direct;
  shard0.GetCounter("shard.posts_in")->Add(10);
  shard1.GetCounter("shard.posts_in")->Add(20);
  shard0.GetHistogram("shard.cmp")->Record(3);
  shard1.GetHistogram("shard.cmp")->Record(9);
  merged.MergeFrom(shard0);
  merged.MergeFrom(shard1);
  direct.GetCounter("shard.posts_in")->Add(30);
  direct.GetHistogram("shard.cmp")->Record(3);
  direct.GetHistogram("shard.cmp")->Record(9);
  EXPECT_EQ(ExportJson(merged), ExportJson(direct));
}

}  // namespace
}  // namespace obs
}  // namespace firehose
