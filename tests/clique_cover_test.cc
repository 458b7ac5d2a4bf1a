#include "src/author/clique_cover.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace firehose {
namespace {

// Checks the three structural invariants of a valid cover for `graph`:
// every clique is complete, every edge is covered, every vertex appears.
void ExpectValidCover(const CliqueCover& cover, const AuthorGraph& graph) {
  std::set<std::pair<AuthorId, AuthorId>> covered_edges;
  for (const auto& clique : cover.cliques()) {
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(graph.IsNeighbor(clique[i], clique[j]))
            << "clique not complete: " << clique[i] << "," << clique[j];
        covered_edges.insert({clique[i], clique[j]});
      }
    }
  }
  for (AuthorId u : graph.vertices()) {
    EXPECT_FALSE(cover.CliquesOf(u).empty()) << "vertex uncovered: " << u;
    for (AuthorId v : graph.Neighbors(u)) {
      if (u < v) {
        EXPECT_TRUE(covered_edges.count({u, v}) > 0)
            << "edge uncovered: " << u << "," << v;
      }
    }
  }
}

TEST(CliqueCoverTest, TriangleBecomesOneClique) {
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2}, {{0, 1}, {0, 2}, {1, 2}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.num_cliques(), 1u);
  EXPECT_EQ(cover.cliques()[0], (std::vector<AuthorId>{0, 1, 2}));
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, PaperFigure6cCover) {
  // Figure 5a graph: triangle {a1,a2,a3} + edge {a3,a4}; the paper's cover
  // is C0 = {a1,a2,a3}, C1 = {a3,a4} (ids shifted down by one).
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.num_cliques(), 2u);
  EXPECT_EQ(cover.cliques()[0], (std::vector<AuthorId>{0, 1, 2}));
  EXPECT_EQ(cover.cliques()[1], (std::vector<AuthorId>{2, 3}));
  // a3 (id 2) belongs to both cliques; others to exactly one.
  EXPECT_EQ(cover.CliquesOf(2).size(), 2u);
  EXPECT_EQ(cover.CliquesOf(0).size(), 1u);
  EXPECT_EQ(cover.CliquesOf(3).size(), 1u);
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, IsolatedVerticesGetSingletons) {
  const AuthorGraph g = AuthorGraph::FromEdges({0, 1, 5}, {{0, 1}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.CliquesOf(5).size(), 1u);
  const CliqueId singleton = cover.CliquesOf(5)[0];
  EXPECT_EQ(cover.cliques()[singleton], (std::vector<AuthorId>{5}));
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, EmptyGraph) {
  const CliqueCover cover = CliqueCover::Greedy(AuthorGraph());
  EXPECT_EQ(cover.num_cliques(), 0u);
  EXPECT_TRUE(cover.CliquesOf(0).empty());
  EXPECT_DOUBLE_EQ(cover.AvgCliqueSize(), 0.0);
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 0.0);
}

TEST(CliqueCoverTest, PathGraphUsesEdgeCliques) {
  // A path 0-1-2-3 has no triangles: cover must be the 3 edges.
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  EXPECT_EQ(cover.num_cliques(), 3u);
  EXPECT_EQ(cover.TotalCliqueSize(), 6u);
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverTest, CompleteGraphIsOneClique) {
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  std::vector<AuthorId> vertices;
  for (AuthorId i = 0; i < 6; ++i) {
    vertices.push_back(i);
    for (AuthorId j = i + 1; j < 6; ++j) edges.emplace_back(i, j);
  }
  const CliqueCover cover =
      CliqueCover::Greedy(AuthorGraph::FromEdges(vertices, edges));
  EXPECT_EQ(cover.num_cliques(), 1u);
  EXPECT_EQ(cover.cliques()[0].size(), 6u);
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 1.0);
  EXPECT_DOUBLE_EQ(cover.AvgCliqueSize(), 6.0);
}

TEST(CliqueCoverTest, StatsOnPaperGraph) {
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const CliqueCover cover = CliqueCover::Greedy(g);
  EXPECT_EQ(cover.TotalCliqueSize(), 5u);               // 3 + 2
  EXPECT_DOUBLE_EQ(cover.AvgCliquesPerAuthor(), 1.25);  // 5 memberships / 4
  EXPECT_DOUBLE_EQ(cover.AvgCliqueSize(), 2.5);
  EXPECT_GT(cover.ApproxBytes(), 0u);
}

TEST(CliqueCoverTest, DeterministicAcrossRuns) {
  const AuthorGraph g = AuthorGraph::FromEdges(
      {0, 1, 2, 3, 4}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}});
  const CliqueCover a = CliqueCover::Greedy(g);
  const CliqueCover b = CliqueCover::Greedy(g);
  EXPECT_EQ(a.cliques(), b.cliques());
}

class RandomGraphCoverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphCoverTest, GreedyCoverIsAlwaysValid) {
  Rng rng(GetParam());
  const int n = 40;
  std::vector<AuthorId> vertices;
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  for (AuthorId i = 0; i < n; ++i) vertices.push_back(i);
  for (AuthorId i = 0; i < n; ++i) {
    for (AuthorId j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.15)) edges.emplace_back(i, j);
    }
  }
  const AuthorGraph g = AuthorGraph::FromEdges(vertices, edges);
  const CliqueCover cover = CliqueCover::Greedy(g);
  ExpectValidCover(cover, g);
  // Sanity of the §4.4 accounting: total memberships = Σ clique sizes.
  uint64_t memberships = 0;
  for (AuthorId a : g.vertices()) memberships += cover.CliquesOf(a).size();
  EXPECT_EQ(memberships, cover.TotalCliqueSize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphCoverTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

uint64_t EdgeKey(AuthorId a, AuthorId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

// The §4.3 greedy written directly over AuthorIds, with a hash set of
// covered edges and every gain recounted from scratch: the oracle for
// CliqueCover::Greedy, which must save the same cliques in the same
// order.
std::vector<std::vector<AuthorId>> ReferenceGreedy(const AuthorGraph& graph) {
  std::vector<std::vector<AuthorId>> cliques;
  std::unordered_set<uint64_t> covered;
  for (AuthorId u : graph.vertices()) {
    for (AuthorId v : graph.Neighbors(u)) {
      if (v < u || covered.count(EdgeKey(u, v)) > 0) continue;
      std::vector<AuthorId> clique = {u, v};
      std::vector<AuthorId> candidates;
      const AuthorGraph::NeighborView neighbors_u = graph.Neighbors(u);
      const AuthorGraph::NeighborView neighbors_v = graph.Neighbors(v);
      std::set_intersection(neighbors_u.begin(), neighbors_u.end(),
                            neighbors_v.begin(), neighbors_v.end(),
                            std::back_inserter(candidates));
      while (!candidates.empty()) {
        AuthorId best = candidates.front();
        int best_gain = -1;
        for (AuthorId cand : candidates) {
          int gain = 0;
          for (AuthorId member : clique) {
            if (covered.count(EdgeKey(cand, member)) == 0) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best = cand;
          }
        }
        clique.push_back(best);
        std::vector<AuthorId> next;
        const AuthorGraph::NeighborView neighbors_best = graph.Neighbors(best);
        std::set_intersection(candidates.begin(), candidates.end(),
                              neighbors_best.begin(), neighbors_best.end(),
                              std::back_inserter(next));
        candidates = std::move(next);
      }
      std::sort(clique.begin(), clique.end());
      for (size_t i = 0; i < clique.size(); ++i) {
        for (size_t j = i + 1; j < clique.size(); ++j) {
          covered.insert(EdgeKey(clique[i], clique[j]));
        }
      }
      cliques.push_back(std::move(clique));
    }
  }
  for (AuthorId a : graph.vertices()) {
    if (graph.Neighbors(a).empty()) cliques.push_back({a});
  }
  return cliques;
}

/// A random graph on `n` vertices with edge probability `p`. Sparse
/// graphs draw distinct ids from the whole AuthorId range, with one id
/// at UINT32_MAX; dense ones number the vertices 0..n-1.
AuthorGraph RandomGraph(Rng& rng, int n, double p, bool sparse_ids) {
  std::vector<AuthorId> ids;
  if (sparse_ids && n > 0) ids.push_back(UINT32_MAX);
  while (ids.size() < static_cast<size_t>(n)) {
    const auto id = sparse_ids ? static_cast<AuthorId>(rng.Next())
                               : static_cast<AuthorId>(ids.size());
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      if (rng.Bernoulli(p)) edges.emplace_back(ids[i], ids[j]);
    }
  }
  return AuthorGraph::FromEdges(ids, edges);
}

void ExpectMatchesReference(const AuthorGraph& g, const std::string& what) {
  const std::vector<std::vector<AuthorId>> want = ReferenceGreedy(g);
  const CliqueCover cover = CliqueCover::Greedy(g);
  ASSERT_EQ(cover.cliques(), want) << what;
  for (size_t k = 0; k < want.size(); ++k) {  // built at their exact size
    ASSERT_EQ(cover.cliques()[k].capacity(), want[k].size())
        << what << " clique " << k;
  }
  ExpectValidCover(cover, g);
}

TEST(CliqueCoverDifferentialTest, MatchesReferenceOnRandomGraphs) {
  // Densities from empty through complete, isolated vertices included
  // wherever p < 1; 6 densities x 2 id layouts x 20 seeds = 240 graphs.
  const double densities[] = {0.0, 0.05, 0.2, 0.5, 0.85, 1.0};
  int graphs = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (double p : densities) {
      for (bool sparse_ids : {false, true}) {
        Rng rng(seed * 1000 + static_cast<uint64_t>(p * 100) +
                (sparse_ids ? 7 : 0));
        const int n = static_cast<int>(rng.UniformInt(41));  // 0..40
        ExpectMatchesReference(
            RandomGraph(rng, n, p, sparse_ids),
            "seed " + std::to_string(seed) + " p " + std::to_string(p) +
                (sparse_ids ? " sparse" : " dense") + " n " +
                std::to_string(n));
        ++graphs;
      }
    }
  }
  EXPECT_GE(graphs, 200);
}

TEST(CliqueCoverDifferentialTest, MatchesReferenceOnEdgeCases) {
  ExpectMatchesReference(AuthorGraph(), "empty graph");
  ExpectMatchesReference(AuthorGraph::FromEdges({7}, {}), "one vertex");
  ExpectMatchesReference(
      AuthorGraph::FromEdges({UINT32_MAX - 1, UINT32_MAX},
                             {{UINT32_MAX - 1, UINT32_MAX}}),
      "one edge at the top of the id range");
  Rng rng(99);
  ExpectMatchesReference(RandomGraph(rng, 60, 1.0, true), "complete K60");
  ExpectMatchesReference(RandomGraph(rng, 200, 0.1, true), "200 sparse ids");
}

TEST(CliqueCoverDifferentialTest, GreedyCliquesOnACsrGraph) {
  // Figure 5a as a CSR: triangle {0,1,2} + edge {2,3} + isolated 4.
  CsrGraph g;
  g.offsets = {0, 2, 4, 7, 8, 8};
  g.neighbors = {1, 2, 0, 2, 0, 1, 3, 2};
  LocalCliques cliques;
  CliqueCover::GreedyCliques(g, &cliques);
  EXPECT_EQ(cliques.offsets, (std::vector<uint32_t>{0, 3, 5, 6}));
  EXPECT_EQ(cliques.members, (std::vector<uint32_t>{0, 1, 2, 2, 3, 4}));
}

}  // namespace
}  // namespace firehose
