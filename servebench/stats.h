#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

// The benchmark's own statistics and parsers: latency quantiles that
// carry their sample counts, open-loop lateness accounting, the /proc
// and /varz readers, and the one-line result format. Everything here is
// pure so servebench_test can pin it down.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// Nearest-rank quantile of ascending `sorted` (non-empty): the smallest
/// sample with at least ceil(q * n) samples at or below it. Returns an
/// actual sample, never an interpolation between two.
double NearestRank(const std::vector<double>& sorted, double q);

/// Median of `values` (the mean of the two middle values when the count
/// is even). 0 for an empty input.
double Median(std::vector<double> values);

/// A latency distribution reduced to what the report gates on. A
/// quantile is only trusted when at least ten samples rank above it.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  size_t beyond_p90 = 0;  ///< samples ranked above the p90 sample
  size_t beyond_p99 = 0;
};
Summary Summarize(std::vector<double> samples);

/// Samples ranked above the nearest-rank q-quantile of `count` samples.
size_t SamplesBeyond(size_t count, double q);

/// The q-quantile of latencies gathered over several sessions. When each
/// session alone has at least ten samples ranked above its q-quantile,
/// this is the median of the per-session quantiles, so one disturbed
/// session cannot move it; otherwise the samples are pooled first.
struct SessionQuantile {
  double value = 0;
  size_t count = 0;  ///< samples over all sessions
  bool pooled = false;
};
SessionQuantile QuantileOverSessions(
    const std::vector<std::vector<double>>& sessions, double q);

/// Open-loop schedule: operation i is due at start + i / rate. Latency
/// of an operation is measured from when it was due, so a stall also
/// charges every operation queued behind it; lateness is how far the
/// generator itself started behind schedule.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double ops_per_second);

  int64_t DueNs(uint64_t op) const;

  /// Records that operation `op` actually started at `started_ns` and
  /// returns how late that was (0 when on time or early).
  int64_t RecordStart(uint64_t op, int64_t started_ns);

  int64_t max_late_ns() const { return max_late_ns_; }

 private:
  int64_t start_ns_;
  double ns_per_op_;
  int64_t max_late_ns_ = 0;
};

/// utime + stime (clock ticks) from the text of /proc/<pid>/stat. The
/// command name may itself hold spaces and parentheses, so fields are
/// counted from the last ')'.
std::optional<uint64_t> ParseProcStatCpuTicks(std::string_view stat);

/// Aggregate CPU time from the first line of /proc/stat, in ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;  ///< time the hypervisor ran something else
};
std::optional<CpuTimes> ParseProcStatCpuLine(std::string_view proc_stat);

/// VmHWM (KiB) from the text of /proc/<pid>/status.
std::optional<uint64_t> ParseVmHwmKb(std::string_view status);

/// Value of counter `name` in a firehose.metrics.v1 JSON snapshot
/// (the /varz body).
std::optional<uint64_t> ParseVarzCounter(std::string_view json,
                                         std::string_view name);

/// One run's result in the benchmark's output contract: the last line of
/// standard output is exactly this object.
struct Metric {
  double value = 0;
  std::string unit;
};
struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

/// Formats `result` as one JSON line, every value with round-trip
/// precision.
std::string FormatResultLine(const RunResult& result);

/// Strict parser for FormatResultLine's output: exactly the keys
/// correct, attempted, failed and metrics; every metric an object with
/// exactly a finite numeric `value` and a string `unit`; attempted >= 1
/// and failed <= attempted. False on anything else.
bool ParseResultLine(std::string_view line, RunResult* result);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
