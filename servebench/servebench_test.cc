// Unit tests of the benchmark's own arithmetic and parsers: quantiles
// and their sample counts, open-loop lateness accounting, span self
// times, the /proc and /varz readers, and the result-line contract.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "servebench/stats.h"
#include "servebench/trace.h"

namespace servebench {
namespace {

TEST(QuantileTest, NearestRankReturnsActualSamples) {
  std::vector<double> sorted;
  for (int i = 1; i <= 10; ++i) sorted.push_back(i);
  EXPECT_EQ(NearestRank(sorted, 0.5), 5);
  EXPECT_EQ(NearestRank(sorted, 0.9), 9);
  EXPECT_EQ(NearestRank(sorted, 0.91), 10);
  EXPECT_EQ(NearestRank(sorted, 0.0), 1);
  EXPECT_EQ(NearestRank(sorted, 1.0), 10);
  EXPECT_EQ(NearestRank({7.5}, 0.99), 7.5);
}

TEST(QuantileTest, SummaryCountsSamplesBeyondEachQuantile) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p90, 90);
  EXPECT_EQ(s.p99, 99);
  EXPECT_EQ(s.beyond_p90, 10u);  // exactly the ten samples the p90 needs
  EXPECT_EQ(s.beyond_p99, 1u);

  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);  // too few for a trusted p90
  EXPECT_EQ(SamplesBeyond(0, 0.9), 0u);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(QuantileTest, SessionsWithEnoughSamplesEachGiveTheMedianQuantile) {
  // Three sessions of 100 samples: each p90 has ten samples above it.
  std::vector<std::vector<double>> sessions(3);
  for (int i = 1; i <= 100; ++i) {
    sessions[0].push_back(i);
    sessions[1].push_back(i * 2.0);
    sessions[2].push_back(i * 100.0);  // one disturbed session
  }
  const SessionQuantile p90 = QuantileOverSessions(sessions, 0.9);
  EXPECT_FALSE(p90.pooled);
  EXPECT_EQ(p90.count, 300u);
  EXPECT_EQ(p90.value, 180);  // median of 90, 180 and 9000

  // One session too short for its own p90: all samples are pooled.
  sessions[1].resize(50);
  const SessionQuantile pooled = QuantileOverSessions(sessions, 0.9);
  EXPECT_TRUE(pooled.pooled);
  EXPECT_EQ(pooled.count, 250u);
  EXPECT_EQ(pooled.value, 7500);  // 225th of the 250 pooled samples

  EXPECT_EQ(QuantileOverSessions({}, 0.5).count, 0u);
}

TEST(QuantileTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(OpenLoopTest, DueTimesFollowTheRate) {
  const OpenLoopSchedule schedule(1000, 5000.0);  // 200 us apart
  EXPECT_EQ(schedule.DueNs(0), 1000);
  EXPECT_EQ(schedule.DueNs(1), 201000);
  EXPECT_EQ(schedule.DueNs(5000), 1000 + 1000000000);
}

TEST(OpenLoopTest, LatenessCountsOnlyLateStarts) {
  OpenLoopSchedule schedule(0, 1000.0);  // 1 ms apart
  EXPECT_EQ(schedule.RecordStart(0, 0), 0);
  EXPECT_EQ(schedule.RecordStart(1, 900000), 0);    // early: not late
  EXPECT_EQ(schedule.RecordStart(2, 2500000), 500000);
  EXPECT_EQ(schedule.RecordStart(3, 3100000), 100000);
  EXPECT_EQ(schedule.max_late_ns(), 500000);
}

TEST(OpenLoopTest, AStallChargesEveryOperationQueuedBehindIt) {
  // A 10 ms stall before op 0 completes: ops 1..9 were due during it and
  // start late, each by less; latency measured from due keeps the wait.
  OpenLoopSchedule schedule(0, 1000.0);
  const int64_t resume = 10000000;
  int64_t total_late = 0;
  for (uint64_t op = 1; op < 10; ++op) {
    total_late += schedule.RecordStart(op, resume);
  }
  EXPECT_EQ(schedule.max_late_ns(), 9000000);
  EXPECT_EQ(total_late, 45000000);
}

TEST(SpanRecorderTest, SelfTimeExcludesDirectChildren) {
  SpanRecorder spans(true);
  const int root = spans.BeginAt("session", 0);
  const int a = spans.BeginAt("net.flush_wait", 10);
  spans.EndAt(a, 40);
  const int b = spans.BeginAt("net.poll_wait", 50);
  const int c = spans.BeginAt("check.timeline", 60);
  spans.EndAt(c, 70);
  spans.EndAt(b, 90);
  spans.EndAt(root, 100);

  const auto stats = spans.Aggregate();
  EXPECT_EQ(stats.at("session").self_ns, 100 - 30 - 40);
  EXPECT_EQ(stats.at("net.flush_wait").self_ns, 30);
  EXPECT_EQ(stats.at("net.poll_wait").total_ns, 40);
  EXPECT_EQ(stats.at("net.poll_wait").self_ns, 30);
  EXPECT_EQ(stats.at("check.timeline").self_ns, 10);
  EXPECT_EQ(spans.RootNs(), 100);
  int64_t self_sum = 0;
  for (const auto& [name, s] : stats) self_sum += s.self_ns;
  EXPECT_EQ(self_sum, spans.RootNs());  // self times partition the wall
}

TEST(SpanRecorderTest, EndingAParentClosesAbandonedChildren) {
  SpanRecorder spans(true);
  const int root = spans.BeginAt("session", 0);
  spans.BeginAt("net.send_post", 5);  // early return: never ended
  spans.EndAt(root, 20);
  const auto stats = spans.Aggregate();
  EXPECT_EQ(stats.at("net.send_post").total_ns, 15);
  EXPECT_EQ(stats.at("session").self_ns, 5);
}

TEST(SpanRecorderTest, DisabledRecorderRecordsNothing) {
  SpanRecorder spans(false);
  { ScopedSpan span(spans, "session"); }
  EXPECT_TRUE(spans.Aggregate().empty());
  EXPECT_EQ(spans.RootNs(), 0);
}

TEST(ProcParseTest, CpuTicksSurviveSpacesAndParensInTheName) {
  const std::string stat =
      "4242 (firehose (serve) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
      "123 45 0 0 20 0 4 0 100 1000 50";
  ASSERT_TRUE(ParseProcStatCpuTicks(stat).has_value());
  EXPECT_EQ(*ParseProcStatCpuTicks(stat), 168u);
  EXPECT_FALSE(ParseProcStatCpuTicks("4242 (short) S 1 2").has_value());
  EXPECT_FALSE(ParseProcStatCpuTicks("no parens").has_value());
}

TEST(ProcParseTest, VmHwmIsReadFromItsOwnLine) {
  const std::string status =
      "Name:\tfirehose_serve\nVmPeak:\t  900 kB\nVmHWM:\t   51200 kB\n"
      "VmRSS:\t   40000 kB\n";
  EXPECT_EQ(ParseVmHwmKb(status).value_or(0), 51200u);
  EXPECT_FALSE(ParseVmHwmKb("VmRSS:\t 1 kB\n").has_value());
  EXPECT_FALSE(ParseVmHwmKb("XVmHWM:\t 1 kB\n").has_value());
}

TEST(ProcParseTest, CpuLineSumsTimeAndPicksSteal) {
  const auto times = ParseProcStatCpuLine(
      "cpu  100 2 30 400 5 6 7 8 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n");
  ASSERT_TRUE(times.has_value());
  EXPECT_EQ(times->total, 558u);
  EXPECT_EQ(times->steal, 8u);
  EXPECT_FALSE(ParseProcStatCpuLine("cpu0 1 2 3\n").has_value());
  EXPECT_FALSE(ParseProcStatCpuLine("cpu  1 2 3\n").has_value());
}

TEST(VarzParseTest, ReadsCountersOnly) {
  const std::string varz =
      "{\n\"schema\": \"firehose.metrics.v1\",\n\"counters\": {\n"
      "  \"serve.posts_ingested\": 81234,\n  \"serve.posts_received\": 40000\n"
      "},\n\"gauges\": {\n  \"serve.sealed\": 1\n}\n}\n";
  EXPECT_EQ(ParseVarzCounter(varz, "serve.posts_received").value_or(0), 40000u);
  EXPECT_EQ(ParseVarzCounter(varz, "serve.posts_ingested").value_or(0), 81234u);
  EXPECT_FALSE(ParseVarzCounter(varz, "serve.sealed").has_value());
  EXPECT_FALSE(ParseVarzCounter(varz, "serve.polls").has_value());
}

TEST(ResultLineTest, RoundTripsEveryDigit) {
  RunResult result;
  result.correct = true;
  result.attempted = 172345;
  result.failed = 0;
  result.metrics["latency_ms"] = {1.2034567891234567, "ms"};
  result.metrics["setup_s"] = {0.8127, "s"};
  result.metrics["ingest_posts_per_s"] = {10234.5, "posts/s"};
  const std::string line = FormatResultLine(result);
  RunResult parsed;
  ASSERT_TRUE(ParseResultLine(line, &parsed)) << line;
  EXPECT_TRUE(parsed.correct);
  EXPECT_EQ(parsed.attempted, 172345u);
  EXPECT_EQ(parsed.failed, 0u);
  ASSERT_EQ(parsed.metrics.size(), 3u);
  EXPECT_EQ(parsed.metrics["latency_ms"].value, 1.2034567891234567);
  EXPECT_EQ(parsed.metrics["ingest_posts_per_s"].unit, "posts/s");
}

TEST(ResultLineTest, RejectsAnythingOutsideTheContract) {
  RunResult r;
  const char* bad[] = {
      "",
      "{}",
      R"({"correct": true, "attempted": 1, "failed": 0})",
      R"({"correct": true, "attempted": 0, "failed": 0, "metrics": {}})",
      R"({"correct": true, "attempted": 2, "failed": 3, "metrics": {}})",
      R"({"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}})",
      R"({"correct": 1, "attempted": 1, "failed": 0, "metrics": {}})",
      R"({"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1})",
      R"({"correct": true, "attempted": 1, "failed": 0, "metrics": {"m": {"value": 1}}})",
      R"({"correct": true, "attempted": 1, "failed": 0, "metrics": {"m": {"value": 1, "unit": "s", "n": 2}}})",
      R"({"correct": true, "attempted": 1, "failed": 0, "metrics": {"m": {"value": "1", "unit": "s"}}})",
      R"({"correct": true, "attempted": 1, "failed": 0, "metrics": {}} trailing)",
      R"({"correct": true, "correct": true, "attempted": 1, "failed": 0, "metrics": {}})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseResultLine(line, &r)) << line;
  }
  EXPECT_TRUE(ParseResultLine(
      R"({"correct": false, "attempted": 1, "failed": 1, "metrics": {"m": {"value": 2.5e-3, "unit": "s"}}})",
      &r));
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.metrics["m"].value, 2.5e-3);
}

}  // namespace
}  // namespace servebench
