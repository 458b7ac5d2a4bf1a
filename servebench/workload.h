#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// The benchmark's workloads and the inputs they are built from. Every
// input is generated in-process from the run's seed with the same calls
// firehose_generate and firehose_precompute make; the server is handed
// only the author graph (as a file) and the wire traffic.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/firehose.h"

namespace servebench {

/// Settings every workload shares: the server's default algorithm
/// (S_CliqueBin) at the paper's λc = 18, λt = 30 min, λa = 0.7, on two
/// shards, so the load generator, the dispatcher and the two shard
/// workers need four hardware threads.
inline constexpr int kLambdaC = 18;
inline constexpr int kLambdaTMinutes = 30;
inline constexpr double kLambdaA = 0.7;
inline constexpr uint32_t kShards = 2;

struct WorkloadSpec {
  const char* name;
  uint32_t authors;          ///< §6.1 stream of ~10 posts per author
  double posts_per_second;   ///< open-loop post rate; 0 = closed loop
  uint32_t flush_every;      ///< posts between Flush barriers
  uint32_t poll_every;       ///< open loop: posts between incremental Polls
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(std::string_view name);
std::string WorkloadNames();

firehose::DiversityThresholds BenchThresholds();

/// Generated inputs plus the reference outputs the served results are
/// checked against, and the in-process layer timings taken while
/// computing them.
struct Workload {
  firehose::AuthorGraph graph;
  std::vector<firehose::User> users;
  firehose::PostStream stream;
  uint64_t follows = 0;

  /// Reference timelines of the in-process S_CliqueBin engine.
  std::vector<std::vector<firehose::PostId>> expected;
  uint64_t deliveries = 0;

  /// Server-side fan-out: each post is ingested once by every shard
  /// owning a component that contains its author.
  uint64_t expected_ingested = 0;
  std::vector<uint64_t> shard_posts;  ///< per-shard post fan-in

  double generate_s = 0;  ///< graph + stream + similarity generation
  double build_ms = 0;    ///< MakeSUserEngine over `users`
  double decide_ns = 0;   ///< OfferBatch (bursts of 64) per post
  double admit_ratio = 0; ///< component offers admitted / offered
};

/// Builds every input of `spec` from `seed`.
Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
