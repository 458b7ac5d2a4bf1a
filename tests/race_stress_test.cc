// Race-hunting stress tests for the concurrent runtime. Every test here is
// written to maximize the interleavings the scheduler can produce —
// randomized backoff on both sides of each queue, repeated
// construct/run/join/destroy rounds, tiny queue capacities that force
// constant full/empty boundary crossings, and explicit shutdown/drain
// orderings — because those are exactly the schedules where a wrong
// std::memory_order silently corrupts results. Run them under the `tsan`
// preset to turn any protocol violation into a hard failure:
//
//   cmake --preset tsan && cmake --build --preset tsan -j
//   ctest --preset tsan -R RaceStress
//
// They also run (slower, unsanitized) in the default suite, where the
// assertions still verify FIFO order, exactly-once delivery and
// sequential equivalence.

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/component_set.h"
#include "src/core/engine.h"
#include "src/core/multi_user.h"
#include "src/eval/experiment.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/runtime/live_ingest.h"
#include "src/runtime/pipeline.h"
#include "src/runtime/spsc_queue.h"
#include "tests/test_util.h"
#include "tests/tsan_annotations.h"

namespace firehose {
namespace {

using testing_util::RandomBackoff;
using testing_util::ScaledIterations;

// --- SpscQueue ---------------------------------------------------------------

/// One producer + one consumer hammer the queue with randomized pacing;
/// FIFO order and exactly-once transfer must survive every interleaving.
TEST(RaceStressSpscQueue, FifoUnderRandomizedBackoff) {
  const int kItems = ScaledIterations(120000);
  for (const size_t capacity : {size_t{1}, size_t{4}, size_t{64}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SpscQueue<int> queue(capacity);
      std::vector<int> received;
      received.reserve(static_cast<size_t>(kItems));

      std::thread producer([&queue, kItems, seed] {
        RandomBackoff backoff(seed * 7919);
        for (int i = 0; i < kItems; ++i) {
          while (!queue.TryPush(i)) backoff.Pause();
          backoff.Pause();
        }
      });
      std::thread consumer([&queue, &received, kItems, seed] {
        RandomBackoff backoff(seed * 104729);
        while (static_cast<int>(received.size()) < kItems) {
          int value;
          if (queue.TryPop(&value)) {
            received.push_back(value);
          } else {
            backoff.Pause();
          }
          const size_t size = queue.ApproxSize();
          ASSERT_LE(size, queue.capacity());
        }
      });
      producer.join();
      consumer.join();

      ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
      for (int i = 0; i < kItems; ++i) {
        ASSERT_EQ(received[static_cast<size_t>(i)], i)
            << "capacity=" << capacity << " seed=" << seed;
      }
    }
  }
}

/// The live-ingest shutdown protocol: producer publishes a done flag after
/// its last push; consumer drains everything it can see after observing
/// the flag. Nothing may be lost, and destroying the queue right after the
/// join must be safe. Many short rounds stress the start/stop edges.
TEST(RaceStressSpscQueue, ShutdownDrainLosesNothing) {
  const int kRounds = ScaledIterations(600);
  const int kItems = 200;
  for (int round = 0; round < kRounds; ++round) {
    SpscQueue<int> queue(8);
    std::atomic<bool> done{false};
    int64_t consumed_sum = 0;
    int consumed = 0;

    std::thread producer([&queue, &done, round] {
      RandomBackoff backoff(static_cast<uint64_t>(round) * 31 + 1);
      for (int i = 0; i < kItems; ++i) {
        while (!queue.TryPush(i)) backoff.Pause();
      }
      done.store(true, std::memory_order_release);
    });

    RandomBackoff backoff(static_cast<uint64_t>(round) * 37 + 2);
    for (;;) {
      int value;
      if (queue.TryPop(&value)) {
        consumed_sum += value;
        ++consumed;
      } else if (done.load(std::memory_order_acquire)) {
        // One more pop attempt: items pushed between the failed pop and
        // the flag read are still in the queue.
        if (!queue.TryPop(&value)) break;
        consumed_sum += value;
        ++consumed;
      } else {
        backoff.Pause();
      }
    }
    producer.join();

    ASSERT_EQ(consumed, kItems) << "round " << round;
    ASSERT_EQ(consumed_sum, int64_t{kItems} * (kItems - 1) / 2);
  }
}

/// Non-trivial payloads: slot reuse copies/destroys std::shared_ptr control
/// blocks across the two threads, so any hole in the release/acquire
/// protocol shows up as a TSan report or a refcount corruption (ASan).
TEST(RaceStressSpscQueue, SharedPtrPayloadSurvivesSlotReuse) {
  const int kItems = ScaledIterations(60000);
  SpscQueue<std::shared_ptr<uint64_t>> queue(4);
  std::atomic<uint64_t> consumed_sum{0};

  std::thread consumer([&queue, &consumed_sum, kItems] {
    RandomBackoff backoff(11);
    int remaining = kItems;
    std::shared_ptr<uint64_t> item;
    while (remaining > 0) {
      if (queue.TryPop(&item)) {
        consumed_sum.fetch_add(*item, std::memory_order_relaxed);
        item.reset();
        --remaining;
      } else {
        backoff.Pause();
      }
    }
  });

  RandomBackoff backoff(13);
  uint64_t expected_sum = 0;
  for (int i = 0; i < kItems; ++i) {
    auto value = std::make_shared<uint64_t>(static_cast<uint64_t>(i) * 3 + 1);
    expected_sum += *value;
    while (!queue.TryPush(value)) backoff.Pause();
  }
  consumer.join();
  EXPECT_EQ(consumed_sum.load(), expected_sum);
}

/// Index wraparound: start both indices just below SIZE_MAX so the
/// monotonically increasing positions wrap modulo 2^64 mid-test. The
/// full/empty arithmetic (`head - tail`) must be oblivious to the wrap.
TEST(RaceStressSpscQueue, TwoThreadsAcrossIndexWraparound) {
  const int kItems = ScaledIterations(60000);
  SpscQueue<int> queue(8);
  queue.TESTONLY_SetStartIndex(SIZE_MAX - static_cast<size_t>(kItems) / 2);
  std::vector<int> received;
  received.reserve(static_cast<size_t>(kItems));

  std::thread producer([&queue, kItems] {
    RandomBackoff backoff(17);
    for (int i = 0; i < kItems; ++i) {
      while (!queue.TryPush(i)) backoff.Pause();
    }
  });
  RandomBackoff backoff(19);
  while (static_cast<int>(received.size()) < kItems) {
    int value;
    if (queue.TryPop(&value)) {
      received.push_back(value);
    } else {
      backoff.Pause();
    }
  }
  producer.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[static_cast<size_t>(i)], i);
  }
}

// --- LiveIngest --------------------------------------------------------------

PostStream TimedStream(int num_posts, int64_t spacing_ms, uint64_t seed) {
  Rng rng(seed);
  PostStream stream;
  for (int i = 0; i < num_posts; ++i) {
    Post post;
    post.id = static_cast<PostId>(i);
    post.author = static_cast<AuthorId>(i % 4);
    post.time_ms = static_cast<int64_t>(i) * spacing_ms;
    post.simhash = rng.Next();
    stream.push_back(post);
  }
  return stream;
}

/// The two-thread live replay must make decision-for-decision the same
/// choices as a sequential pass, for every algorithm, even with a
/// one-slot queue that blocks the producer on almost every post.
TEST(RaceStressLiveIngest, TinyQueueMatchesOfflineForAllAlgorithms) {
  const int kPosts = ScaledIterations(24000);
  const AuthorGraph graph = testing_util::PaperExampleGraph();
  const DiversityThresholds t = testing_util::PaperExampleThresholds();
  const PostStream stream = TimedStream(kPosts, 10, 29);

  for (Algorithm algorithm : kAllAlgorithms) {
    auto offline = MakeDiversifier(algorithm, t, &graph);
    for (const Post& post : stream) offline->Offer(post);

    for (const size_t queue_capacity : {size_t{1}, size_t{64}}) {
      auto live = MakeDiversifier(algorithm, t, &graph);
      LiveIngestOptions options;
      options.speedup = 1e9;  // all posts due immediately: max queue churn
      options.queue_capacity = queue_capacity;
      const LiveIngestReport report = RunLiveIngest(*live, stream, options);

      EXPECT_EQ(report.posts_in, static_cast<uint64_t>(kPosts))
          << AlgorithmName(algorithm) << " capacity=" << queue_capacity;
      EXPECT_EQ(report.posts_out, offline->stats().posts_out);
      EXPECT_EQ(live->stats().comparisons, offline->stats().comparisons);
      // high_water samples ApproxSize racily after a pop, so it can read
      // one past a momentarily-full queue.
      EXPECT_LE(report.queue_high_water,
                SpscQueue<int>(queue_capacity).capacity() + 1);
    }
  }
}

/// Back-to-back short replays stress thread startup/join/teardown — the
/// window where a leaked reference to a dead stack frame or queue would
/// turn into a use-after-free under ASan.
TEST(RaceStressLiveIngest, RepeatedShortReplays) {
  const int kRounds = ScaledIterations(120);
  const AuthorGraph graph = testing_util::PaperExampleGraph();
  const DiversityThresholds t = testing_util::PaperExampleThresholds();
  for (int round = 0; round < kRounds; ++round) {
    const PostStream stream =
        TimedStream(50, 5, static_cast<uint64_t>(round) + 1);
    auto diversifier = MakeDiversifier(Algorithm::kUniBin, t, &graph);
    LiveIngestOptions options;
    options.speedup = 1e9;
    options.queue_capacity = 2;
    const LiveIngestReport report =
        RunLiveIngest(*diversifier, stream, options);
    ASSERT_EQ(report.posts_in, 50u) << "round " << round;
  }
}

// --- Pipeline ----------------------------------------------------------------

/// PostSource adapter over an SpscQueue: bridges a producer thread into
/// the (single-threaded, pull-based) Pipeline so the pipeline's consumer
/// loop runs concurrently with a live feeder.
class QueueSource final : public PostSource {
 public:
  QueueSource(SpscQueue<Post>* queue, const std::atomic<bool>* done,
              uint64_t backoff_seed)
      : queue_(queue), done_(done), backoff_(backoff_seed) {}

  bool Next(Post* post) override {
    for (;;) {
      if (queue_->TryPop(post)) return true;
      if (done_->load(std::memory_order_acquire)) {
        // Drain the race between the last failed pop and the flag.
        return queue_->TryPop(post);
      }
      backoff_.Pause();
    }
  }

 private:
  SpscQueue<Post>* queue_;
  const std::atomic<bool>* done_;
  RandomBackoff backoff_;
};

/// Feeder thread -> SpscQueue -> Pipeline::Run in this thread. The
/// admitted sub-stream must equal the sequential reference answer.
TEST(RaceStressPipeline, QueueFedPipelineMatchesReference) {
  const int kPosts = ScaledIterations(24000);
  const AuthorGraph graph = testing_util::PaperExampleGraph();
  const DiversityThresholds t = testing_util::PaperExampleThresholds();

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const PostStream stream = testing_util::RandomStream(kPosts, 4, 3, rng);
    const std::vector<PostId> expected =
        testing_util::ReferenceDiversify(stream, t, graph);

    SpscQueue<Post> queue(4);
    std::atomic<bool> done{false};
    std::thread feeder([&queue, &stream, &done, seed] {
      RandomBackoff backoff(seed * 53);
      for (const Post& post : stream) {
        while (!queue.TryPush(post)) backoff.Pause();
        backoff.Pause();
      }
      done.store(true, std::memory_order_release);
    });

    auto diversifier = MakeDiversifier(Algorithm::kNeighborBin, t, &graph);
    PostStream admitted;
    CollectSink sink(&admitted);
    Pipeline pipeline(diversifier.get(), &sink);
    QueueSource source(&queue, &done, seed * 59);
    const PipelineReport report = pipeline.Run(source);
    feeder.join();

    EXPECT_EQ(report.posts_in, static_cast<uint64_t>(kPosts));
    std::vector<PostId> admitted_ids;
    admitted_ids.reserve(admitted.size());
    for (const Post& post : admitted) admitted_ids.push_back(post.id);
    EXPECT_EQ(admitted_ids, expected) << "seed=" << seed;
  }
}

// --- ComponentSet shards ----------------------------------------------------

struct Workbench {
  AuthorGraph graph;
  std::vector<User> users;
  PostStream stream;
};

Workbench MakeWorkbench(uint64_t seed, int num_authors, int num_users,
                        int num_posts) {
  Rng rng(seed);
  Workbench w;
  w.graph = testing_util::RandomAuthorGraph(num_authors, 0.25, rng);
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs;
    for (AuthorId a = 0; a < static_cast<AuthorId>(num_authors); ++a) {
      if (rng.Bernoulli(0.4)) subs.push_back(a);
    }
    if (subs.empty()) subs.push_back(0);
    w.users.push_back(User{u, subs});
  }
  w.stream = testing_util::RandomStream(num_posts, num_authors, 25, rng);
  return w;
}

/// Splits the components round-robin into one ComponentSet per shard and
/// decides the whole stream with every set on its own thread; returns the
/// merged deliveries, sorted. Shards share only the read-only graph and
/// stream, so TSan reports any write one shard makes to state another can
/// see.
std::vector<std::pair<PostId, UserId>> RunComponentShards(
    Algorithm algorithm, const DiversityThresholds& t, const Workbench& w,
    size_t num_shards) {
  // One graph serves discovery and every shard's build, as in a seal.
  std::vector<std::vector<SharedComponent>> owned(num_shards);
  size_t next = 0;
  for (SharedComponent& shared : ComputeSharedComponents(t, w.graph, w.users)) {
    owned[next++ % num_shards].push_back(std::move(shared));
  }
  std::vector<std::vector<std::pair<PostId, UserId>>> shard_deliveries(
      num_shards);
  std::vector<std::thread> workers;
  workers.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    workers.emplace_back([algorithm, &w, &owned, &shard_deliveries, s] {
      // Built on the thread that decides with it, as a serve shard is.
      ComponentSet set(algorithm, w.graph, std::move(owned[s]));
      std::vector<MultiUserEngine::BatchDelivery> batch;
      set.OfferBatch(std::span<const Post>(w.stream), &batch);
      for (const MultiUserEngine::BatchDelivery& d : batch) {
        shard_deliveries[s].emplace_back(w.stream[d.post_index].id, d.user);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::vector<std::pair<PostId, UserId>> merged;
  for (const auto& part : shard_deliveries) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

/// Many shard counts x seeds: the merged deliveries of the ComponentSet
/// shards must be exactly the sequential S_* engine's.
TEST(RaceStressSharded, ManyShardsMatchSequentialAcrossSeeds) {
  const int kPosts = ScaledIterations(3000);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;

  for (uint64_t seed = 201; seed <= 203; ++seed) {
    const Workbench w = MakeWorkbench(seed, 16, 8, kPosts);
    auto engine = MakeSUserEngine(Algorithm::kCliqueBin, t, w.graph, w.users);
    std::vector<std::pair<PostId, UserId>> expected;
    RunMultiUser(*engine, w.stream, &expected);
    std::sort(expected.begin(), expected.end());

    for (size_t num_shards : {size_t{2}, size_t{3}, size_t{8}}) {
      ASSERT_EQ(RunComponentShards(Algorithm::kCliqueBin, t, w, num_shards),
                expected)
          << "seed=" << seed << " shards=" << num_shards;
    }
  }
}

/// Four sharded runs execute concurrently (each spawning its own shard
/// threads) against the same read-only inputs: nothing may be shared
/// mutable between independent ComponentSet instances.
TEST(RaceStressSharded, ConcurrentIndependentRunsDoNotInterfere) {
  const int kPosts = ScaledIterations(3000);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;
  const Workbench w = MakeWorkbench(301, 14, 6, kPosts);

  auto engine = MakeSUserEngine(Algorithm::kUniBin, t, w.graph, w.users);
  std::vector<std::pair<PostId, UserId>> expected;
  RunMultiUser(*engine, w.stream, &expected);
  std::sort(expected.begin(), expected.end());

  std::vector<std::vector<std::pair<PostId, UserId>>> results(4);
  std::vector<std::thread> runners;
  runners.reserve(results.size());
  for (size_t r = 0; r < results.size(); ++r) {
    runners.emplace_back([&w, &t, &results, r] {
      results[r] = RunComponentShards(Algorithm::kUniBin, t, w, 2 + r);
    });
  }
  for (std::thread& runner : runners) runner.join();
  for (size_t r = 0; r < results.size(); ++r) {
    EXPECT_EQ(results[r], expected) << "runner " << r;
  }
}

// --- Serve shard builds -----------------------------------------------------

/// Starts, seals and stops a 4-shard server over and over. Each seal
/// builds every shard's set on that shard's worker thread from one
/// shared graph index while BuildShards waits at the build barrier, so
/// TSan sees the build threads, the shared reads and the hand-off to the
/// dispatcher. Every incarnation must then serve the sequential engine's
/// timelines exactly.
TEST(RaceStressServe, RepeatedSealsBuildShardsOnTheirWorkers) {
  const Workbench w = MakeWorkbench(61, 16, 10, 200);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;
  const auto engine = MakeSUserEngine(Algorithm::kCliqueBin, t, w.graph,
                                      w.users);
  std::vector<std::pair<PostId, UserId>> deliveries;
  (void)RunMultiUser(*engine, w.stream, &deliveries);
  std::vector<std::vector<PostId>> expected(w.users.size());
  for (const auto& [post, user] : deliveries) expected[user].push_back(post);

  for (int round = 0; round < 12; ++round) {
    net::ServeOptions options;
    options.num_shards = 4;
    options.algorithm = Algorithm::kCliqueBin;
    options.thresholds = t;
    net::Server server(options, &w.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    net::ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    for (const User& user : w.users) {
      for (AuthorId author : user.subscriptions) {
        ASSERT_TRUE(client.Follow(user.id, author)) << client.last_error();
      }
    }
    ASSERT_TRUE(client.Seal(w.users.size())) << client.last_error();
    for (const Post& post : w.stream) {
      ASSERT_TRUE(client.SendPost(post)) << client.last_error();
    }
    ASSERT_TRUE(client.Flush()) << client.last_error();
    for (const User& user : w.users) {
      std::vector<PostId> served;
      ASSERT_TRUE(client.Poll(user.id, 0, &served)) << client.last_error();
      EXPECT_EQ(served, expected[user.id])
          << "round " << round << " user " << user.id;
    }
    client.Disconnect();
    server.Stop();
  }
}

}  // namespace
}  // namespace firehose
