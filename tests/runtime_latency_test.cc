#include "src/runtime/latency.h"

#include <gtest/gtest.h>

namespace firehose {
namespace {

TEST(LatencyRecorderTest, EmptySummary) {
  LatencyRecorder recorder;
  const LatencySummary summary = recorder.Summarize();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean_us, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99_us, 0.0);
}

TEST(LatencyRecorderTest, SingleSample) {
  LatencyRecorder recorder;
  recorder.RecordNanos(1000);  // 1us
  const LatencySummary summary = recorder.Summarize();
  EXPECT_EQ(summary.count, 1u);
  EXPECT_NEAR(summary.mean_us, 1.0, 1e-9);
  EXPECT_NEAR(summary.max_us, 1.0, 1e-9);
  // Bucketed percentile within the ~8% bucket resolution.
  EXPECT_NEAR(summary.p50_us, 1.0, 0.15);
}

TEST(LatencyRecorderTest, MeanIsExact) {
  LatencyRecorder recorder;
  recorder.RecordNanos(1000);
  recorder.RecordNanos(3000);
  EXPECT_NEAR(recorder.Summarize().mean_us, 2.0, 1e-9);
}

TEST(LatencyRecorderTest, PercentilesOrdered) {
  LatencyRecorder recorder;
  for (uint64_t i = 1; i <= 10000; ++i) recorder.RecordNanos(i * 100);
  const LatencySummary summary = recorder.Summarize();
  EXPECT_LE(summary.p50_us, summary.p95_us);
  EXPECT_LE(summary.p95_us, summary.p99_us);
  EXPECT_LE(summary.p99_us, summary.max_us * 1.1);
}

TEST(LatencyRecorderTest, PercentilesApproximateUniform) {
  LatencyRecorder recorder;
  // Uniform 0-1ms: p50 ≈ 500us, p99 ≈ 990us (within bucket resolution).
  for (uint64_t i = 1; i <= 100000; ++i) {
    recorder.RecordNanos(i * 10);  // 10ns .. 1ms
  }
  const LatencySummary summary = recorder.Summarize();
  EXPECT_NEAR(summary.p50_us, 500.0, 60.0);
  EXPECT_NEAR(summary.p99_us, 990.0, 110.0);
}

TEST(LatencyRecorderTest, ZeroNanosClampsToSmallestBucket) {
  LatencyRecorder recorder;
  recorder.RecordNanos(0);
  EXPECT_EQ(recorder.count(), 1u);
  EXPECT_GT(recorder.Summarize().p50_us, 0.0);
}

TEST(LatencyRecorderTest, HugeValuesClampToLastBucket) {
  LatencyRecorder recorder;
  recorder.RecordNanos(~0ULL);
  const LatencySummary summary = recorder.Summarize();
  EXPECT_EQ(summary.count, 1u);
  EXPECT_GT(summary.max_us, 1e9);  // > 1000s reported via exact max
}

TEST(LatencyRecorderTest, BucketResolutionWithinTenPercent) {
  // For any value, the reported percentile (bucket upper edge) should be
  // within ~+10% of the true sample.
  for (uint64_t nanos : {50ULL, 1234ULL, 987654ULL, 55555555ULL}) {
    LatencyRecorder recorder;
    recorder.RecordNanos(nanos);
    const double p50_nanos = recorder.Summarize().p50_us * 1000.0;
    EXPECT_GE(p50_nanos, static_cast<double>(nanos) * 0.99);
    EXPECT_LE(p50_nanos, static_cast<double>(nanos) * 1.12);
  }
}

}  // namespace
}  // namespace firehose
