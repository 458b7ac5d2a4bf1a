// Batch-vs-single equivalence property tests: OfferBatch must be an
// exact semantic alias for per-post Offer — identical admitted
// timelines, identical counters, byte-identical SaveState snapshots —
// for every diversifier and both multi-user engines, across random
// burst sizes that straddle λt eviction boundaries. This is the
// contract that lets the runtime layers (pipeline, live ingest, shard
// workers) batch opportunistically without changing results.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cosine_unibin.h"
#include "src/core/engine.h"
#include "src/core/multi_user.h"
#include "src/util/binary.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::RandomAuthorGraph;
using testing_util::RandomStream;

// Random burst partition of [0, n): mostly small bursts, with occasional
// jumps up to 4096 so large bursts cross many eviction boundaries.
std::vector<size_t> RandomBurstSizes(size_t n, Rng& rng) {
  std::vector<size_t> sizes;
  size_t remaining = n;
  while (remaining > 0) {
    size_t burst;
    switch (rng.UniformInt(4)) {
      case 0:
        burst = 1;
        break;
      case 1:
        burst = 1 + static_cast<size_t>(rng.UniformInt(8));
        break;
      case 2:
        burst = 1 + static_cast<size_t>(rng.UniformInt(128));
        break;
      default:
        burst = 1 + static_cast<size_t>(rng.UniformInt(4096));
    }
    burst = std::min(burst, remaining);
    sizes.push_back(burst);
    remaining -= burst;
  }
  return sizes;
}

void ExpectStatsEqual(const IngestStats& a, const IngestStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.posts_in, b.posts_in) << label;
  EXPECT_EQ(a.posts_out, b.posts_out) << label;
  EXPECT_EQ(a.comparisons, b.comparisons) << label;
  EXPECT_EQ(a.insertions, b.insertions) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.pruned, b.pruned) << label;
}

std::string Snapshot(const Diversifier& diversifier) {
  BinaryWriter out;
  diversifier.SaveState(&out);
  return out.buffer();
}

// Drives `single` per post and `batched` in random bursts over the same
// stream, checking the admitted bitmap post-by-post and the final
// stats + snapshot.
void CheckDiversifierPair(Diversifier& single, Diversifier& batched,
                          const PostStream& stream, Rng& rng,
                          const std::string& label) {
  std::vector<uint8_t> admitted_single(stream.size(), 0);
  for (size_t i = 0; i < stream.size(); ++i) {
    admitted_single[i] = single.Offer(stream[i]) ? 1 : 0;
  }

  std::vector<uint8_t> admitted;
  size_t start = 0;
  size_t total_out = 0;
  for (const size_t burst : RandomBurstSizes(stream.size(), rng)) {
    const std::span<const Post> posts(&stream[start], burst);
    const size_t delivered = batched.OfferBatch(posts, &admitted);
    ASSERT_EQ(admitted.size(), burst) << label;
    size_t bitmap_count = 0;
    for (size_t i = 0; i < burst; ++i) {
      EXPECT_EQ(admitted[i], admitted_single[start + i])
          << label << " post=" << start + i << " burst=" << burst;
      bitmap_count += admitted[i];
    }
    EXPECT_EQ(delivered, bitmap_count) << label;  // return matches bitmap
    total_out += delivered;
    start += burst;
  }

  const IngestStats& s = single.stats();
  const IngestStats& b = batched.stats();
  ExpectStatsEqual(s, b, label);
  // Metrics reconciliation: every offered post is admitted or suppressed,
  // and the kernel ledger accounts for every candidate considered.
  EXPECT_EQ(b.posts_in, stream.size()) << label;
  EXPECT_EQ(b.posts_out, total_out) << label;
  EXPECT_LE(b.posts_out, b.posts_in) << label;

  EXPECT_EQ(Snapshot(single), Snapshot(batched))
      << label << ": SaveState bytes diverged";
}

class BatchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEquivalenceTest, BinDiversifiersMatchPerPostOffer) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    const int num_authors = 6 + static_cast<int>(rng.UniformInt(20));
    const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.3, rng);
    DiversityThresholds t;
    t.lambda_c = 1 + static_cast<int>(rng.UniformInt(12));
    // Small λt relative to the stream span so bursts straddle eviction
    // boundaries (a 4096-post burst covers many full windows).
    t.lambda_t_ms = 50 + static_cast<int64_t>(rng.UniformInt(400));
    const PostStream stream = RandomStream(
        3000 + static_cast<int>(rng.UniformInt(3000)), num_authors, 20, rng);

    for (Algorithm algorithm : kAllAlgorithms) {
      auto single = MakeDiversifier(algorithm, t, &graph);
      auto batched = MakeDiversifier(algorithm, t, &graph);
      CheckDiversifierPair(*single, *batched, stream, rng,
                           std::string(AlgorithmName(algorithm)) +
                               " seed=" + std::to_string(GetParam()) +
                               " round=" + std::to_string(round));
    }
  }
}

TEST_P(BatchEquivalenceTest, CosineUniBinMatchesPerPostOffer) {
  Rng rng(GetParam() ^ 0xC05);
  const int num_authors = 12;
  const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.3, rng);
  DiversityThresholds t;
  t.lambda_t_ms = 200;
  // Small word pool so near-duplicate texts (and so cosine coverage)
  // are common.
  const char* kWords[] = {"election", "result",  "storm",  "warning",
                          "market",   "rally",   "launch", "delay",
                          "outage",   "restored"};
  PostStream stream;
  int64_t now = 0;
  for (int i = 0; i < 1500; ++i) {
    Post post;
    post.id = static_cast<PostId>(i);
    post.author = static_cast<AuthorId>(rng.UniformInt(num_authors));
    now += static_cast<int64_t>(rng.UniformInt(15));
    post.time_ms = now;
    std::string text;
    const int len = 3 + static_cast<int>(rng.UniformInt(6));
    for (int w = 0; w < len; ++w) {
      if (!text.empty()) text.push_back(' ');
      text += kWords[rng.UniformInt(std::size(kWords))];
    }
    post.text = std::move(text);
    stream.push_back(std::move(post));
  }

  CosineUniBinDiversifier single(t, 0.7, &graph);
  CosineUniBinDiversifier batched(t, 0.7, &graph);
  CheckDiversifierPair(single, batched, stream, rng,
                       "CosineUniBin seed=" + std::to_string(GetParam()));
}

// Overlapping-subscription user population (hub copies) so the S engine
// actually shares components.
std::vector<User> OverlappingUsers(int num_users, int num_authors, Rng& rng) {
  std::vector<std::vector<AuthorId>> hubs(3);
  for (auto& hub : hubs) {
    const int hub_size = 2 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < hub_size; ++i) {
      hub.push_back(static_cast<AuthorId>(rng.UniformInt(num_authors)));
    }
    std::sort(hub.begin(), hub.end());
    hub.erase(std::unique(hub.begin(), hub.end()), hub.end());
  }
  std::vector<User> users;
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs = hubs[rng.UniformInt(hubs.size())];
    const int extra = static_cast<int>(rng.UniformInt(3));
    for (int i = 0; i < extra; ++i) {
      subs.push_back(static_cast<AuthorId>(rng.UniformInt(num_authors)));
    }
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    users.push_back(User{u, std::move(subs), std::nullopt});
  }
  return users;
}

TEST_P(BatchEquivalenceTest, MultiUserEnginesMatchPerPostOffer) {
  Rng rng(GetParam() * 31 + 7);
  const int num_authors = 16;
  const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.25, rng);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 300;
  const std::vector<User> users = OverlappingUsers(8, num_authors, rng);
  const PostStream stream = RandomStream(2500, num_authors, 20, rng);

  for (Algorithm algorithm : kAllAlgorithms) {
    for (const bool shared : {false, true}) {
      auto single = shared ? MakeSUserEngine(algorithm, t, graph, users)
                           : MakeMUserEngine(algorithm, t, graph, users);
      auto batched = shared ? MakeSUserEngine(algorithm, t, graph, users)
                            : MakeMUserEngine(algorithm, t, graph, users);
      const std::string label = std::string(AlgorithmName(algorithm)) +
                                (shared ? "/S" : "/M") +
                                " seed=" + std::to_string(GetParam());

      // Per-post twin: deliveries as (post_index, user) pairs.
      std::vector<std::pair<uint32_t, UserId>> single_deliveries;
      std::vector<UserId> delivered;
      for (size_t i = 0; i < stream.size(); ++i) {
        single->Offer(stream[i], &delivered);
        for (UserId user : delivered) {
          single_deliveries.emplace_back(static_cast<uint32_t>(i), user);
        }
      }

      // Batched twin over random bursts.
      std::vector<std::pair<uint32_t, UserId>> batch_deliveries;
      std::vector<MultiUserEngine::BatchDelivery> burst_deliveries;
      size_t start = 0;
      for (const size_t burst : RandomBurstSizes(stream.size(), rng)) {
        const std::span<const Post> posts(&stream[start], burst);
        const size_t count =
            batched->OfferBatch(posts, &burst_deliveries);
        ASSERT_EQ(count, burst_deliveries.size()) << label;
        for (const MultiUserEngine::BatchDelivery& d : burst_deliveries) {
          ASSERT_LT(d.post_index, burst) << label;
          batch_deliveries.emplace_back(
              static_cast<uint32_t>(start + d.post_index), d.user);
        }
        start += burst;
      }

      ASSERT_EQ(single_deliveries, batch_deliveries) << label;
      const IngestStats single_stats = single->AggregateStats();
      const IngestStats batched_stats = batched->AggregateStats();
      ExpectStatsEqual(single_stats, batched_stats, label);
      // OfferBatch keeps Offer's per-post peak-memory accounting.
      EXPECT_EQ(single_stats.peak_bytes, batched_stats.peak_bytes) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalenceTest,
                         ::testing::Values(1u, 42u, 20260808u));

}  // namespace
}  // namespace firehose
