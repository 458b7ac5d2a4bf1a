// google-benchmark microbenchmarks of the stream-side hot paths: post-bin
// push/evict/scan, the per-post Offer of each algorithm on a steady
// synthetic stream, and the S_CliqueBin component runtime at serve scale.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/component_set.h"
#include "src/core/engine.h"
#include "src/stream/post_bin.h"
#include "src/util/random.h"

namespace firehose {
namespace {

void BM_PostBinPushEvict(benchmark::State& state) {
  const int64_t window = state.range(0);
  PostBin bin;
  int64_t t = 0;
  for (auto _ : state) {
    bin.Push(BinEntry{t, static_cast<uint64_t>(t), 0, 0});
    bin.EvictOlderThan(t - window);
    ++t;
  }
  state.counters["resident"] = static_cast<double>(bin.size());
}
BENCHMARK(BM_PostBinPushEvict)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PostBinScan(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  PostBin bin;
  Rng rng(3);
  for (size_t i = 0; i < size; ++i) {
    bin.Push(BinEntry{static_cast<int64_t>(i), rng.Next(), 0, 0});
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < bin.size(); ++i) {
      acc += bin.FromNewest(i).simhash;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_PostBinScan)->Arg(256)->Arg(4096);

// Per-post Offer cost of each algorithm on a stream over a 64-author
// clustered graph with a 4096-tick window.
void OfferBenchmark(benchmark::State& state, Algorithm algorithm) {
  Rng rng(7);
  const int num_authors = 64;
  std::vector<AuthorId> vertices;
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  for (AuthorId a = 0; a < num_authors; ++a) {
    vertices.push_back(a);
    for (AuthorId b = a + 1; b < num_authors; ++b) {
      if (a / 8 == b / 8) edges.emplace_back(a, b);  // 8 cliques of 8
    }
  }
  const AuthorGraph graph = AuthorGraph::FromEdges(vertices, edges);
  const CliqueCover cover = CliqueCover::Greedy(graph);
  DiversityThresholds t;
  t.lambda_c = 18;
  t.lambda_t_ms = 4096;
  auto diversifier = MakeDiversifier(algorithm, t, &graph, &cover);

  int64_t now = 0;
  for (auto _ : state) {
    Post post;
    post.id = static_cast<PostId>(now);
    post.author = static_cast<AuthorId>(rng.UniformInt(num_authors));
    post.time_ms = now++;
    post.simhash = rng.Next();
    benchmark::DoNotOptimize(diversifier->Offer(post));
  }
  state.counters["cmp/post"] =
      static_cast<double>(diversifier->stats().comparisons) /
      static_cast<double>(diversifier->stats().posts_in);
}

void BM_OfferUniBin(benchmark::State& state) {
  OfferBenchmark(state, Algorithm::kUniBin);
}
void BM_OfferNeighborBin(benchmark::State& state) {
  OfferBenchmark(state, Algorithm::kNeighborBin);
}
void BM_OfferCliqueBin(benchmark::State& state) {
  OfferBenchmark(state, Algorithm::kCliqueBin);
}
BENCHMARK(BM_OfferUniBin);
BENCHMARK(BM_OfferNeighborBin);
BENCHMARK(BM_OfferCliqueBin);

// Per-offer cost of S_CliqueBin at the shape of a serve shard: ~10k small
// shared components whose bins together outgrow the cache, so an offer
// pays for finding its bins rather than for comparing. 4,000
// authors in clusters of 10 (intra-cluster edges with p = 0.5); 3,000
// users each follow 4 authors in each of 3 clusters; λt = 30 min over
// one post every 250 ms, warmed to steady state before timing.
void BM_SCliqueBinManyComponents(benchmark::State& state) {
  Rng rng(11);
  constexpr uint64_t kAuthors = 4000;
  constexpr uint64_t kCluster = 10;
  std::vector<AuthorId> vertices;
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  for (AuthorId a = 0; a < kAuthors; ++a) {
    vertices.push_back(a);
    for (AuthorId b = a + 1; b < (a / kCluster + 1) * kCluster; ++b) {
      if (rng.UniformInt(2) == 0) edges.emplace_back(a, b);
    }
  }
  const AuthorGraph graph = AuthorGraph::FromEdges(vertices, edges);
  std::vector<User> users;
  for (UserId u = 0; u < 3000; ++u) {
    std::vector<AuthorId> follows;
    for (int c = 0; c < 3; ++c) {
      const uint64_t cluster = rng.UniformInt(kAuthors / kCluster);
      for (int i = 0; i < 4; ++i) {
        follows.push_back(static_cast<AuthorId>(cluster * kCluster +
                                                rng.UniformInt(kCluster)));
      }
    }
    std::sort(follows.begin(), follows.end());
    follows.erase(std::unique(follows.begin(), follows.end()), follows.end());
    users.emplace_back(u, std::move(follows));
  }
  DiversityThresholds t;
  t.lambda_c = 18;
  t.lambda_t_ms = 30 * 60 * 1000;
  std::vector<SharedComponent> components =
      ComputeSharedComponents(t, graph, users);
  const size_t num_components = components.size();
  ComponentSet set(Algorithm::kCliqueBin, graph, std::move(components));

  int64_t now = 0;
  auto next_post = [&] {
    Post post;
    post.id = static_cast<PostId>(now / 250);
    post.author = static_cast<AuthorId>(rng.UniformInt(kAuthors));
    post.time_ms = now;
    post.simhash = rng.Next();
    now += 250;
    return post;
  };
  std::vector<MultiUserEngine::BatchDelivery> deliveries;
  for (int i = 0; i < 20000; ++i) {
    const Post post = next_post();
    set.OfferBatch(std::span<const Post>(&post, 1), &deliveries);
  }
  const IngestStats warm = set.AggregateStats();

  for (auto _ : state) {
    const Post post = next_post();
    benchmark::DoNotOptimize(
        set.OfferBatch(std::span<const Post>(&post, 1), &deliveries));
  }
  const IngestStats total = set.AggregateStats();
  const double offers = static_cast<double>(total.posts_in - warm.posts_in);
  state.counters["components"] = static_cast<double>(num_components);
  state.counters["offer/post"] =
      offers / static_cast<double>(state.iterations());
  state.counters["cmp/offer"] =
      static_cast<double>(total.comparisons - warm.comparisons) / offers;
  state.counters["time/offer"] = benchmark::Counter(
      offers, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SCliqueBinManyComponents);

}  // namespace
}  // namespace firehose

BENCHMARK_MAIN();
