#ifndef FIREHOSE_RUNTIME_LATENCY_H_
#define FIREHOSE_RUNTIME_LATENCY_H_

#include <cstdint>

#include "src/obs/log_histogram.h"

namespace firehose {

/// Percentile summary of a latency distribution, in microseconds.
struct LatencySummary {
  uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Log-bucketed latency recorder: buckets at ~8% resolution from 1ns to
/// ~70s, constant memory, O(1) record. The real-time claim of the paper
/// ("immediately decide whether a post should be pushed") is quantified
/// as the per-post decision latency distribution this recorder captures.
///
/// A thin nanosecond-unit wrapper over obs::LogHistogram, owned by the
/// one run loop that records into it.
class LatencyRecorder {
 public:
  /// Records one sample, in nanoseconds.
  void RecordNanos(uint64_t nanos) { histogram_.Record(nanos); }

  /// Percentiles computed from bucket boundaries (upper edge).
  LatencySummary Summarize() const;

  uint64_t count() const { return histogram_.count(); }

  /// The underlying unit-agnostic histogram (nanosecond samples), for
  /// export through an obs::MetricsRegistry.
  const obs::LogHistogram& histogram() const { return histogram_; }

 private:
  obs::LogHistogram histogram_;
};

}  // namespace firehose

#endif  // FIREHOSE_RUNTIME_LATENCY_H_
