// ComponentSet partitions: §5's shared components never interact, so the
// components of ComputeSharedComponents split round-robin into k sets,
// each deciding the whole stream on its own, must deliver exactly what
// the sequential S_* engine delivers and do exactly its work. A serve
// shard is one such set. The S_* engine is itself a set, so the set is
// also checked against code that is not the set: one standalone
// diversifier per shared component.

#include "src/core/component_set.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/experiment.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using Deliveries = std::vector<std::pair<PostId, UserId>>;

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

/// The components split round-robin, in discovery order, into `k` sets.
std::vector<ComponentSet> Partition(Algorithm algorithm,
                                    const DiversityThresholds& t,
                                    const Workbench& w, size_t k) {
  std::vector<std::vector<SharedComponent>> owned(k);
  size_t next = 0;
  for (SharedComponent& shared : ComputeSharedComponents(t, w.graph, w.users)) {
    owned[next++ % k].push_back(std::move(shared));
  }
  std::vector<ComponentSet> sets;
  sets.reserve(k);
  for (std::vector<SharedComponent>& part : owned) {
    sets.emplace_back(algorithm, w.graph, std::move(part));
  }
  return sets;
}

/// Every set decides the whole stream through OfferBatch; the deliveries
/// are merged and sorted by (post, user).
Deliveries DecideAll(std::vector<ComponentSet>& sets,
                     const PostStream& stream) {
  Deliveries merged;
  std::vector<MultiUserEngine::BatchDelivery> batch;
  for (ComponentSet& set : sets) {
    set.OfferBatch(std::span<const Post>(stream), &batch);
    for (const MultiUserEngine::BatchDelivery& d : batch) {
      merged.emplace_back(stream[d.post_index].id, d.user);
    }
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

Deliveries SequentialDeliveries(MultiUserEngine& engine,
                                const PostStream& stream) {
  Deliveries deliveries;
  RunMultiUser(engine, stream, &deliveries);
  std::sort(deliveries.begin(), deliveries.end());
  return deliveries;
}

class ShardedTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedTest, MatchesSequentialSEngineExactly) {
  const size_t k = GetParam();
  const Workbench w = MakeWorkbench(91, 14, 8, 500);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;

  for (Algorithm algorithm : kAllAlgorithms) {
    auto engine = MakeSUserEngine(algorithm, t, w.graph, w.users);
    const Deliveries expected = SequentialDeliveries(*engine, w.stream);
    std::vector<ComponentSet> sets = Partition(algorithm, t, w, k);
    EXPECT_EQ(DecideAll(sets, w.stream), expected)
        << AlgorithmName(algorithm) << " k=" << k;

    uint64_t comparisons = 0;
    uint64_t pruned = 0;
    for (const ComponentSet& set : sets) {
      comparisons += set.AggregateStats().comparisons;
      pruned += set.AggregateStats().pruned;
    }
    EXPECT_EQ(comparisons, engine->AggregateStats().comparisons)
        << AlgorithmName(algorithm) << " k=" << k;
    EXPECT_EQ(pruned, engine->AggregateStats().pruned)
        << AlgorithmName(algorithm) << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                           size_t{4}, size_t{7}));

TEST(ShardedTest, CustomThresholdsPreserved) {
  Workbench w = MakeWorkbench(93, 10, 4, 400);
  DiversityThresholds loose;
  loose.lambda_c = -1;  // user 0 gets everything
  w.users[0].custom_thresholds = loose;
  DiversityThresholds t;
  t.lambda_c = 6;
  t.lambda_t_ms = 500;
  auto engine = MakeSUserEngine(Algorithm::kUniBin, t, w.graph, w.users);
  std::vector<ComponentSet> sets = Partition(Algorithm::kUniBin, t, w, 3);
  EXPECT_EQ(DecideAll(sets, w.stream), SequentialDeliveries(*engine, w.stream));
}

/// The oracle: every shared component decided by its own MakeDiversifier
/// over its own induced subgraph (CliqueBin: its own greedy cover), the
/// admitted posts delivered to the component's owners.
Deliveries StandaloneDeliveries(Algorithm algorithm,
                                const DiversityThresholds& t,
                                const Workbench& w, IngestStats* total) {
  const std::vector<SharedComponent> components =
      ComputeSharedComponents(t, w.graph, w.users);
  std::vector<AuthorGraph> graphs;
  graphs.reserve(components.size());  // the diversifiers point into it
  std::vector<std::unique_ptr<Diversifier>> diversifiers;
  for (const SharedComponent& c : components) {
    graphs.push_back(w.graph.InducedSubgraph(c.authors));
    diversifiers.push_back(
        MakeDiversifier(algorithm, c.thresholds, &graphs.back()));
  }
  Deliveries deliveries;
  for (const Post& post : w.stream) {
    for (size_t i = 0; i < components.size(); ++i) {
      const std::vector<AuthorId>& authors = components[i].authors;
      if (!std::binary_search(authors.begin(), authors.end(), post.author)) {
        continue;
      }
      if (diversifiers[i]->Offer(post)) {
        for (UserId user : components[i].users) {
          deliveries.emplace_back(post.id, user);
        }
      }
    }
  }
  for (const auto& d : diversifiers) total->MergeFrom(d->stats());
  std::sort(deliveries.begin(), deliveries.end());
  return deliveries;
}

TEST(ComponentSetOracleTest, MatchesOneStandaloneDiversifierPerComponent) {
  Workbench w = MakeWorkbench(97, 16, 9, 700);
  DiversityThresholds loose;
  loose.lambda_c = -1;  // user 0 gets everything
  w.users[0].custom_thresholds = loose;
  DiversityThresholds narrow;
  narrow.lambda_c = 10;
  narrow.lambda_t_ms = 150;
  w.users[1].custom_thresholds = narrow;
  DiversityThresholds t;
  t.lambda_c = 5;
  t.lambda_t_ms = 400;

  for (Algorithm algorithm : kAllAlgorithms) {
    IngestStats expected;
    const Deliveries oracle = StandaloneDeliveries(algorithm, t, w, &expected);
    ASSERT_FALSE(oracle.empty());
    std::vector<ComponentSet> sets = Partition(algorithm, t, w, 1);
    EXPECT_EQ(DecideAll(sets, w.stream), oracle) << AlgorithmName(algorithm);

    const IngestStats got = sets[0].AggregateStats();
    EXPECT_EQ(got.posts_in, expected.posts_in) << AlgorithmName(algorithm);
    EXPECT_EQ(got.posts_out, expected.posts_out) << AlgorithmName(algorithm);
    EXPECT_EQ(got.comparisons, expected.comparisons)
        << AlgorithmName(algorithm);
    EXPECT_EQ(got.pruned, expected.pruned) << AlgorithmName(algorithm);
    EXPECT_EQ(got.evictions, expected.evictions) << AlgorithmName(algorithm);
    EXPECT_EQ(got.insertions, expected.insertions)
        << AlgorithmName(algorithm);
    // Both sides share OfferToBins, so its contract is checked outright:
    // the stream outlives λt, and every bin evicts before it scans.
    EXPECT_GT(got.evictions, 0u) << AlgorithmName(algorithm);
    EXPECT_EQ(got.pruned, 0u) << AlgorithmName(algorithm);
  }
}

TEST(ShardedTest, EmptyStreamAndUsers) {
  Workbench w = MakeWorkbench(95, 6, 3, 0);
  DiversityThresholds t;
  std::vector<ComponentSet> sets = Partition(Algorithm::kUniBin, t, w, 2);
  EXPECT_TRUE(DecideAll(sets, w.stream).empty());

  w.users.clear();
  w.stream = testing_util::PaperExamplePosts();
  std::vector<ComponentSet> no_users = Partition(Algorithm::kUniBin, t, w, 2);
  for (const ComponentSet& set : no_users) EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(DecideAll(no_users, w.stream).empty());
}

TEST(ShardedTest, ComputeSharedComponentsShape) {
  // Two users with the same subscriptions share every component; a third
  // disjoint user adds its own.
  const AuthorGraph graph = testing_util::PaperExampleGraph();
  const DiversityThresholds t = testing_util::PaperExampleThresholds();
  const std::vector<User> users = {User{0, {0, 1, 2, 3}},
                                   User{1, {0, 1, 2, 3}},
                                   User{2, {0}}};
  const auto components = ComputeSharedComponents(t, graph, users);
  // {0,1,2,3} is one connected component shared by u0+u1; {0} for u2.
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].authors, (std::vector<AuthorId>{0, 1, 2, 3}));
  EXPECT_EQ(components[0].users, (std::vector<UserId>{0, 1}));
  EXPECT_EQ(components[1].authors, (std::vector<AuthorId>{0}));
  EXPECT_EQ(components[1].users, (std::vector<UserId>{2}));
}

/// The components of the subgraph induced by `subscriptions`, found
/// without the inducer: union-find over every pair of distinct
/// subscriptions that IsNeighbor joins. Each component is sorted; they
/// come in order of their smallest author.
std::vector<std::vector<AuthorId>> PairwiseComponents(
    const AuthorGraph& graph, std::vector<AuthorId> subscriptions) {
  std::sort(subscriptions.begin(), subscriptions.end());
  subscriptions.erase(std::unique(subscriptions.begin(), subscriptions.end()),
                      subscriptions.end());
  std::vector<size_t> parent(subscriptions.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (size_t i = 0; i < subscriptions.size(); ++i) {
    for (size_t j = i + 1; j < subscriptions.size(); ++j) {
      if (graph.IsNeighbor(subscriptions[i], subscriptions[j])) {
        parent[find(i)] = find(j);
      }
    }
  }
  // Roots are visited in subscription order, so components come out
  // ordered by their smallest (first) author and each stays sorted.
  std::vector<std::vector<AuthorId>> components;
  std::vector<size_t> slot(subscriptions.size(), SIZE_MAX);
  for (size_t i = 0; i < subscriptions.size(); ++i) {
    size_t& s = slot[find(i)];
    if (s == SIZE_MAX) {
      s = components.size();
      components.emplace_back();
    }
    components[s].push_back(subscriptions[i]);
  }
  return components;
}

/// The oracle for ComputeSharedComponents: each user's G_i components
/// from PairwiseComponents, and a linear search for an equal (author
/// set, thresholds) component.
std::vector<SharedComponent> ReferenceSharedComponents(
    const DiversityThresholds& t, const AuthorGraph& graph,
    const std::vector<User>& users) {
  std::vector<SharedComponent> components;
  for (const User& user : users) {
    const DiversityThresholds user_t = user.custom_thresholds.value_or(t);
    for (std::vector<AuthorId>& authors :
         PairwiseComponents(graph, user.subscriptions)) {
      size_t index = 0;
      while (index < components.size() &&
             !(components[index].authors == authors &&
               components[index].thresholds == user_t)) {
        ++index;
      }
      if (index == components.size()) {
        components.push_back(SharedComponent{std::move(authors), {}, user_t});
      }
      components[index].users.push_back(user.id);
    }
  }
  for (SharedComponent& c : components) {
    std::sort(c.users.begin(), c.users.end());
    c.users.erase(std::unique(c.users.begin(), c.users.end()), c.users.end());
  }
  return components;
}

TEST(SharedComponentsTest, MatchesInducedSubgraphReference) {
  // Graph vertices are sparse ids (with one at UINT32_MAX); users
  // subscribe, unsorted and with repeats, to graph authors and to ids the
  // graph lacks. Every third user sets custom thresholds: half of them
  // equal to the defaults (and so shared with default users), half not.
  DiversityThresholds t;
  t.lambda_c = 6;
  DiversityThresholds custom = t;
  custom.lambda_c = 9;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.UniformInt(30));
    std::vector<AuthorId> ids = {UINT32_MAX};
    while (ids.size() < static_cast<size_t>(n)) {
      const AuthorId id = static_cast<AuthorId>(rng.UniformInt(1u << 20)) * 4096;
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    std::vector<std::pair<AuthorId, AuthorId>> edges;
    const double p = 0.05 + 0.1 * static_cast<double>(seed % 5);
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        if (rng.Bernoulli(p)) edges.emplace_back(ids[i], ids[j]);
      }
    }
    const AuthorGraph graph = AuthorGraph::FromEdges(ids, edges);
    std::vector<User> users;
    for (UserId u = 0; u < 25; ++u) {
      std::vector<AuthorId> subs;
      const uint64_t count = rng.UniformInt(12);
      for (uint64_t k = 0; k < count; ++k) {
        subs.push_back(rng.Bernoulli(0.8)
                           ? ids[rng.UniformInt(ids.size())]
                           : static_cast<AuthorId>(rng.UniformInt(1000)) * 4096 + 1);
      }
      std::optional<DiversityThresholds> user_t;
      if (u % 3 == 2) user_t = (u % 2 == 0) ? t : custom;
      users.emplace_back(u, std::move(subs), user_t);
    }

    const std::vector<SharedComponent> got =
        ComputeSharedComponents(t, graph, users);
    const std::vector<SharedComponent> want =
        ReferenceSharedComponents(t, graph, users);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c].authors, want[c].authors) << "seed " << seed;
      EXPECT_EQ(got[c].users, want[c].users) << "seed " << seed;
      EXPECT_TRUE(got[c].thresholds == want[c].thresholds) << "seed " << seed;
    }
  }
}

TEST(SharedComponentsTest, InducerMatchesInducedSubgraph) {
  // One inducer reused across subsets, and InducedSubgraph, both checked
  // against the whole graph's pairwise IsNeighbor.
  Rng rng(7);
  const AuthorGraph graph = testing_util::RandomAuthorGraph(30, 0.2, rng);
  SubgraphInducer inducer(graph);
  CsrGraph local;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<AuthorId> subset;
    for (AuthorId a = 0; a < 34; ++a) {  // 30..33 are absent from the graph
      if (rng.Bernoulli(0.4)) subset.push_back(a);
    }
    inducer.Induce(subset, &local);
    const AuthorGraph induced = graph.InducedSubgraph(subset);
    ASSERT_EQ(local.num_vertices(), subset.size());
    EXPECT_EQ(induced.vertices(), subset);
    for (uint32_t i = 0; i < local.num_vertices(); ++i) {
      std::vector<AuthorId> want;
      for (AuthorId b : subset) {
        if (graph.IsNeighbor(subset[i], b)) want.push_back(b);
      }
      std::vector<AuthorId> row;
      for (uint32_t j : local.Row(i)) row.push_back(subset[j]);
      EXPECT_EQ(row, want) << "trial " << trial;
      EXPECT_EQ(testing_util::NeighborList(induced, subset[i]), want)
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace firehose
