#include "src/author/similarity_graph.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::NeighborList;

AuthorGraph MakePaperFigure5Graph() {
  // Figure 5a: a1-a2, a1-a3, a2-a3 triangle plus a3-a4 (ids shifted to 0).
  return AuthorGraph::FromEdges({0, 1, 2, 3},
                                {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
}

TEST(AuthorGraphTest, EmptyGraph) {
  AuthorGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasVertex(0));
  EXPECT_TRUE(g.Neighbors(0).empty());
  EXPECT_TRUE(g.ConnectedComponents().empty());
}

TEST(AuthorGraphTest, FromEdgesBasics) {
  const AuthorGraph g = MakePaperFigure5Graph();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(NeighborList(g, 0), (std::vector<AuthorId>{1, 2}));
  EXPECT_EQ(NeighborList(g, 2), (std::vector<AuthorId>{0, 1, 3}));
}

TEST(AuthorGraphTest, IsNeighborSymmetric) {
  const AuthorGraph g = MakePaperFigure5Graph();
  EXPECT_TRUE(g.IsNeighbor(0, 1));
  EXPECT_TRUE(g.IsNeighbor(1, 0));
  EXPECT_FALSE(g.IsNeighbor(0, 3));
  EXPECT_FALSE(g.IsNeighbor(3, 0));
}

TEST(AuthorGraphTest, SelfIsNotANeighbor) {
  const AuthorGraph g = MakePaperFigure5Graph();
  EXPECT_FALSE(g.IsNeighbor(0, 0));
}

TEST(AuthorGraphTest, SelfLoopsAndForeignEdgesIgnored) {
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1}, {{0, 0}, {0, 1}, {0, 9}, {9, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AuthorGraphTest, DuplicateEdgesCollapse) {
  const AuthorGraph g =
      AuthorGraph::FromEdges({0, 1}, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Neighbors(0).size(), 1u);
}

TEST(AuthorGraphTest, AvgDegree) {
  const AuthorGraph g = MakePaperFigure5Graph();
  EXPECT_DOUBLE_EQ(g.AvgDegree(), 2.0);  // 2*4 edges / 4 vertices
}

TEST(AuthorGraphTest, FromSimilaritiesAppliesLambdaA) {
  std::vector<AuthorPairSimilarity> pairs = {
      {0, 1, 0.5},   // distance 0.5
      {1, 2, 0.25},  // distance 0.75
  };
  // λa = 0.7 keeps only distance <= 0.7, i.e. similarity >= 0.3.
  const AuthorGraph g = AuthorGraph::FromSimilarities({0, 1, 2}, pairs, 0.7);
  EXPECT_TRUE(g.IsNeighbor(0, 1));
  EXPECT_FALSE(g.IsNeighbor(1, 2));
  // λa = 0.8 admits both edges.
  const AuthorGraph g2 = AuthorGraph::FromSimilarities({0, 1, 2}, pairs, 0.8);
  EXPECT_TRUE(g2.IsNeighbor(1, 2));
}

TEST(AuthorGraphTest, InducedSubgraphKeepsOnlyInternalEdges) {
  const AuthorGraph g = MakePaperFigure5Graph();
  const AuthorGraph sub = g.InducedSubgraph({0, 1, 3});
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_TRUE(sub.IsNeighbor(0, 1));
  EXPECT_FALSE(sub.IsNeighbor(0, 2));  // 2 not in subgraph
  EXPECT_TRUE(sub.Neighbors(3).empty());  // 3's only neighbor (2) excluded
  EXPECT_EQ(sub.num_edges(), 1u);
}

TEST(AuthorGraphTest, InducedSubgraphWithUnknownVertices) {
  const AuthorGraph g = MakePaperFigure5Graph();
  // Vertex 9 unknown to g: becomes isolated, not dropped.
  const AuthorGraph sub = g.InducedSubgraph({0, 9});
  EXPECT_EQ(sub.num_vertices(), 2u);
  EXPECT_TRUE(sub.HasVertex(9));
  EXPECT_TRUE(sub.Neighbors(9).empty());
}

TEST(AuthorGraphTest, InducedSubgraphDeduplicatesInput) {
  const AuthorGraph g = MakePaperFigure5Graph();
  const AuthorGraph sub = g.InducedSubgraph({1, 1, 0, 0});
  EXPECT_EQ(sub.num_vertices(), 2u);
}

TEST(AuthorGraphTest, ConnectedComponents) {
  // Two components: {0,1,2,3} and {5,6}; 8 isolated.
  const AuthorGraph g = AuthorGraph::FromEdges(
      {0, 1, 2, 3, 5, 6, 8}, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {5, 6}});
  const auto components = g.ConnectedComponents();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<AuthorId>{0, 1, 2, 3}));
  EXPECT_EQ(components[1], (std::vector<AuthorId>{5, 6}));
  EXPECT_EQ(components[2], (std::vector<AuthorId>{8}));
}

TEST(AuthorGraphTest, ComponentsPartitionTheVertexSet) {
  const AuthorGraph g = MakePaperFigure5Graph();
  size_t total = 0;
  for (const auto& c : g.ConnectedComponents()) total += c.size();
  EXPECT_EQ(total, g.num_vertices());
}

/// A naive model of an undirected graph: its vertex set and its edges as
/// ordered pairs (u < v).
struct PairModel {
  std::set<AuthorId> vertices;
  std::set<std::pair<AuthorId, AuthorId>> edges;

  /// The model of FromEdges(vertices, edges): self-loops, repeats and
  /// edges with an endpoint outside `vertices` dropped.
  PairModel(const std::vector<AuthorId>& vertex_list,
            const std::vector<std::pair<AuthorId, AuthorId>>& edge_list)
      : vertices(vertex_list.begin(), vertex_list.end()) {
    for (auto [a, b] : edge_list) {
      if (a != b && vertices.count(a) != 0 && vertices.count(b) != 0) {
        edges.insert(std::minmax(a, b));
      }
    }
  }

  /// The model of the subgraph induced by `subset`.
  PairModel Induced(const std::vector<AuthorId>& subset) const {
    PairModel sub({}, {});
    sub.vertices.insert(subset.begin(), subset.end());
    for (const auto& edge : edges) {
      if (sub.vertices.count(edge.first) != 0 &&
          sub.vertices.count(edge.second) != 0) {
        sub.edges.insert(edge);
      }
    }
    return sub;
  }

  std::vector<AuthorId> Neighbors(AuthorId a) const {
    std::vector<AuthorId> out;
    for (const auto& [u, v] : edges) {
      if (u == a) out.push_back(v);
      if (v == a) out.push_back(u);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Components by union-find, each sorted, ordered by smallest vertex.
  std::vector<std::vector<AuthorId>> Components() const {
    std::map<AuthorId, AuthorId> parent;
    for (AuthorId a : vertices) parent[a] = a;
    auto find = [&](AuthorId a) {
      while (parent[a] != a) a = parent[a] = parent[parent[a]];
      return a;
    };
    for (const auto& [u, v] : edges) parent[find(u)] = find(v);
    std::map<AuthorId, std::vector<AuthorId>> by_root;
    for (AuthorId a : vertices) by_root[find(a)].push_back(a);
    std::vector<std::vector<AuthorId>> out;
    for (auto& [root, members] : by_root) out.push_back(std::move(members));
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// Checks every query of `g` against `model`, probing `probes` (vertices
/// and ids the graph lacks alike).
void ExpectMatchesModel(const AuthorGraph& g, const PairModel& model,
                        const std::vector<AuthorId>& probes) {
  EXPECT_EQ(g.vertices(), std::vector<AuthorId>(model.vertices.begin(),
                                                model.vertices.end()));
  EXPECT_EQ(g.num_edges(), model.edges.size());
  for (AuthorId a : probes) {
    EXPECT_EQ(g.HasVertex(a), model.vertices.count(a) != 0) << a;
    EXPECT_EQ(NeighborList(g, a), model.Neighbors(a)) << a;
    for (AuthorId b : probes) {
      EXPECT_EQ(g.IsNeighbor(a, b),
                model.edges.count(std::minmax(a, b)) != 0)
          << a << " " << b;
    }
  }
  EXPECT_EQ(g.ConnectedComponents(), model.Components());
}

TEST(AuthorGraphPropertyTest, MatchesASetOfPairsModel) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Sparse ids, with the extremes of the id space in some graphs.
    std::vector<AuthorId> ids;
    const size_t n = rng.UniformInt(25);
    if (seed % 3 == 0) ids.push_back(0);
    if (seed % 4 == 0) ids.push_back(UINT32_MAX);
    while (ids.size() < n) {
      ids.push_back(static_cast<AuthorId>(rng.UniformInt(1u << 16)) * 7919);
    }
    // Ids the graph lacks: endpoints of foreign edges, absent subset
    // members and probes.
    std::vector<AuthorId> foreign;
    for (int k = 0; k < 4; ++k) {
      foreign.push_back(static_cast<AuthorId>(rng.UniformInt(1u << 16)) *
                            7919 + 1);
    }
    std::vector<AuthorId> pool = ids;
    pool.insert(pool.end(), foreign.begin(), foreign.end());
    // Vertices may repeat; edges include self-loops, repeats in both
    // orientations and foreign endpoints.
    std::vector<AuthorId> vertex_list = ids;
    if (!ids.empty()) vertex_list.push_back(ids[rng.UniformInt(ids.size())]);
    std::vector<std::pair<AuthorId, AuthorId>> edge_list;
    const double p = 0.05 + 0.05 * static_cast<double>(seed % 6);
    for (AuthorId a : pool) {
      for (AuthorId b : pool) {
        if (rng.Bernoulli(p)) edge_list.emplace_back(a, b);
      }
    }
    const AuthorGraph g = AuthorGraph::FromEdges(vertex_list, edge_list);
    const PairModel model(vertex_list, edge_list);
    ExpectMatchesModel(g, model, pool);

    for (int trial = 0; trial < 5; ++trial) {
      std::vector<AuthorId> subset;
      for (AuthorId a : pool) {
        if (rng.Bernoulli(0.5)) subset.push_back(a);
        if (rng.Bernoulli(0.1)) subset.push_back(a);  // a repeat
      }
      rng.Shuffle(subset);
      ExpectMatchesModel(g.InducedSubgraph(subset), model.Induced(subset),
                         pool);
    }
  }
}

TEST(AuthorGraphTest, ApproxBytesGrowsWithGraph) {
  const AuthorGraph small = AuthorGraph::FromEdges({0, 1}, {{0, 1}});
  const AuthorGraph large = MakePaperFigure5Graph();
  EXPECT_GT(large.ApproxBytes(), small.ApproxBytes());
}

}  // namespace
}  // namespace firehose
