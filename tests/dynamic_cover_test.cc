#include "src/author/dynamic_cover.h"

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "src/author/similarity.h"
#include "src/core/clique_bin.h"
#include "src/gen/social_graph_gen.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::NeighborList;
using testing_util::PaperExampleGraph;

TEST(DynamicCoverTest, InitialCoverIsValid) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(maintainer.graph()));
  EXPECT_EQ(maintainer.num_cliques(), 2u);  // {0,1,2} + {2,3}
  EXPECT_EQ(maintainer.cliques_created(), 0u);  // initial build is free
}

TEST(DynamicCoverTest, AddEdgeAbsorbedByExistingClique) {
  // Graph: triangle {0,1,2} plus vertex 3 adjacent to 1 and 2 (but not 0).
  AuthorGraph graph = AuthorGraph::FromEdges(
      {0, 1, 2, 3}, {{0, 1}, {0, 2}, {1, 2}, {1, 3}});
  DynamicCoverMaintainer maintainer(std::move(graph));
  // Adding {2,3} can extend the {1,3} or {2,*} cliques... whatever the
  // repair does, the result must stay valid and cover the new edge.
  ASSERT_TRUE(maintainer.AddEdge(2, 3));
  const CliqueCover cover = maintainer.Snapshot();
  EXPECT_TRUE(cover.IsValidFor(maintainer.graph()));
  EXPECT_TRUE(maintainer.graph().IsNeighbor(2, 3));
}

TEST(DynamicCoverTest, AddEdgeBetweenIsolatedVertices) {
  AuthorGraph graph = AuthorGraph::FromEdges({0, 1}, {});
  DynamicCoverMaintainer maintainer(std::move(graph));
  EXPECT_EQ(maintainer.num_cliques(), 2u);  // two singletons
  ASSERT_TRUE(maintainer.AddEdge(0, 1));
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(maintainer.graph()));
}

TEST(DynamicCoverTest, AddEdgeRejectsInvalid) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  EXPECT_FALSE(maintainer.AddEdge(0, 0));   // self loop
  EXPECT_FALSE(maintainer.AddEdge(0, 1));   // already present
  EXPECT_FALSE(maintainer.AddEdge(0, 99));  // unknown endpoint
}

TEST(DynamicCoverTest, RemoveEdgeDissolvesAndRepairs) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  // Removing {0,1} breaks the triangle clique; edges {0,2} and {1,2}
  // must get re-covered.
  ASSERT_TRUE(maintainer.RemoveEdge(0, 1));
  const CliqueCover cover = maintainer.Snapshot();
  EXPECT_TRUE(cover.IsValidFor(maintainer.graph()));
  EXPECT_FALSE(maintainer.graph().IsNeighbor(0, 1));
  EXPECT_GT(maintainer.cliques_dissolved(), 0u);
}

TEST(DynamicCoverTest, RemoveEdgeLeavingIsolatedVertexKeepsSingleton) {
  AuthorGraph graph = AuthorGraph::FromEdges({0, 1}, {{0, 1}});
  DynamicCoverMaintainer maintainer(std::move(graph));
  ASSERT_TRUE(maintainer.RemoveEdge(0, 1));
  const CliqueCover cover = maintainer.Snapshot();
  EXPECT_TRUE(cover.IsValidFor(maintainer.graph()));
  EXPECT_FALSE(cover.CliquesOf(0).empty());
  EXPECT_FALSE(cover.CliquesOf(1).empty());
}

TEST(DynamicCoverTest, RemoveMissingEdgeFails) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  EXPECT_FALSE(maintainer.RemoveEdge(0, 3));
  EXPECT_FALSE(maintainer.RemoveEdge(0, 99));
}

TEST(DynamicCoverTest, AddAndRemoveAuthor) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  maintainer.AddAuthor(9);
  EXPECT_TRUE(maintainer.graph().HasVertex(9));
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(maintainer.graph()));
  ASSERT_TRUE(maintainer.AddEdge(9, 0));
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(maintainer.graph()));
  ASSERT_TRUE(maintainer.RemoveAuthor(9));
  EXPECT_FALSE(maintainer.graph().HasVertex(9));
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(maintainer.graph()));
  EXPECT_FALSE(maintainer.RemoveAuthor(9));  // already gone
}

TEST(DynamicCoverTest, RemoveHubAuthor) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  ASSERT_TRUE(maintainer.RemoveAuthor(2));  // the bridge vertex
  const CliqueCover cover = maintainer.Snapshot();
  EXPECT_TRUE(cover.IsValidFor(maintainer.graph()));
  EXPECT_EQ(maintainer.graph().num_vertices(), 3u);
  // 3 lost its only neighbor: must still be covered by a singleton.
  EXPECT_FALSE(cover.CliquesOf(3).empty());
}

// The author graph's mutations live in the maintainer (AuthorGraph is
// immutable); these check them through graph() snapshots, on the graph
// of the paper's Figure 5a.

TEST(AuthorGraphMutationTest, AddVertexAndEdge) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  maintainer.AddAuthor(7);
  EXPECT_TRUE(maintainer.graph().HasVertex(7));
  EXPECT_EQ(maintainer.graph().num_vertices(), 5u);
  maintainer.AddAuthor(7);  // idempotent
  EXPECT_EQ(maintainer.graph().num_vertices(), 5u);
  EXPECT_TRUE(maintainer.AddEdge(7, 0));
  const AuthorGraph g = maintainer.graph();
  EXPECT_TRUE(g.IsNeighbor(0, 7));
  EXPECT_TRUE(g.IsNeighbor(7, 0));
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(g));
}

TEST(AuthorGraphMutationTest, AddEdgeRejections) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  EXPECT_FALSE(maintainer.AddEdge(0, 0));   // self loop
  EXPECT_FALSE(maintainer.AddEdge(0, 1));   // duplicate
  EXPECT_FALSE(maintainer.AddEdge(0, 42));  // unknown endpoint
  EXPECT_FALSE(maintainer.AddEdge(42, 0));
  EXPECT_EQ(maintainer.graph().num_edges(), 4u);
  EXPECT_FALSE(maintainer.graph().HasVertex(42));
}

TEST(AuthorGraphMutationTest, RemoveEdge) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  EXPECT_TRUE(maintainer.RemoveEdge(0, 1));
  const AuthorGraph g = maintainer.graph();
  EXPECT_FALSE(g.IsNeighbor(0, 1));
  EXPECT_FALSE(g.IsNeighbor(1, 0));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(maintainer.RemoveEdge(0, 1));  // already gone
  EXPECT_FALSE(maintainer.RemoveEdge(1, 0));
  EXPECT_FALSE(maintainer.RemoveEdge(0, 42));
  EXPECT_EQ(maintainer.graph().num_edges(), 3u);
}

TEST(AuthorGraphMutationTest, RemoveVertexDropsIncidentEdges) {
  DynamicCoverMaintainer maintainer(PaperExampleGraph());
  EXPECT_TRUE(maintainer.RemoveAuthor(2));  // degree-3 bridge vertex
  const AuthorGraph g = maintainer.graph();
  EXPECT_FALSE(g.HasVertex(2));
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);  // only {0,1} survives
  EXPECT_TRUE(g.Neighbors(3).empty());
  EXPECT_FALSE(maintainer.RemoveAuthor(2));
}

TEST(AuthorGraphMutationTest, AdjacencyStaysSorted) {
  DynamicCoverMaintainer maintainer(
      AuthorGraph::FromEdges({0, 1, 2, 3, 4}, {}));
  EXPECT_TRUE(maintainer.AddEdge(2, 4));
  EXPECT_TRUE(maintainer.AddEdge(2, 0));
  EXPECT_TRUE(maintainer.AddEdge(2, 3));
  EXPECT_EQ(NeighborList(maintainer.graph(), 2),
            (std::vector<AuthorId>{0, 3, 4}));
}

TEST(AuthorGraphMutationTest, MutatedGraphMatchesFromEdges) {
  DynamicCoverMaintainer maintainer(AuthorGraph::FromEdges({0, 1, 2, 3}, {}));
  maintainer.AddEdge(0, 1);
  maintainer.AddEdge(0, 2);
  maintainer.AddEdge(1, 2);
  maintainer.AddEdge(2, 3);
  maintainer.RemoveEdge(0, 2);
  const AuthorGraph incremental = maintainer.graph();
  const AuthorGraph direct =
      AuthorGraph::FromEdges({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(incremental.num_edges(), direct.num_edges());
  for (AuthorId a : direct.vertices()) {
    EXPECT_EQ(NeighborList(incremental, a), NeighborList(direct, a));
  }
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(incremental));
}

class DynamicCoverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicCoverPropertyTest, RandomChurnPreservesValidity) {
  Rng rng(GetParam());
  const int n = 24;
  AuthorGraph graph = testing_util::RandomAuthorGraph(n, 0.2, rng);
  DynamicCoverMaintainer maintainer(std::move(graph));

  // Mirror of the maintained graph's edge set, for cross-checking.
  std::set<std::pair<AuthorId, AuthorId>> edges;
  const AuthorGraph initial = maintainer.graph();
  for (AuthorId u : initial.vertices()) {
    for (AuthorId v : initial.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }

  for (int step = 0; step < 300; ++step) {
    const AuthorId a = static_cast<AuthorId>(rng.UniformInt(n));
    const AuthorId b = static_cast<AuthorId>(rng.UniformInt(n));
    if (a == b) continue;
    const auto key = std::minmax(a, b);
    if (rng.Bernoulli(0.5)) {
      if (maintainer.AddEdge(a, b)) {
        edges.insert({key.first, key.second});
      }
    } else {
      if (maintainer.RemoveEdge(a, b)) {
        edges.erase({key.first, key.second});
      }
    }
    if (step % 25 == 0) {
      ASSERT_TRUE(maintainer.Snapshot().IsValidFor(maintainer.graph()))
          << "invalid cover at step " << step;
    }
  }

  // Final cross-checks: edge set matches, cover valid, and the cover's
  // size is in the same ballpark as a from-scratch greedy cover.
  const AuthorGraph final_graph = maintainer.graph();
  ASSERT_TRUE(maintainer.Snapshot().IsValidFor(final_graph));
  uint64_t live_edges = 0;
  for (AuthorId u : final_graph.vertices()) {
    for (AuthorId v : final_graph.Neighbors(u)) {
      if (u < v) {
        ++live_edges;
        EXPECT_TRUE(edges.count({u, v}) > 0);
      }
    }
  }
  EXPECT_EQ(live_edges, edges.size());

  const CliqueCover scratch = CliqueCover::Greedy(final_graph);
  const CliqueCover incremental = maintainer.Snapshot();
  EXPECT_LE(incremental.TotalCliqueSize(),
            scratch.TotalCliqueSize() * 3 + 16)
      << "incremental cover degraded far beyond the greedy baseline";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicCoverPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DynamicCoverTest, FullIncrementalPipelineMatchesRebuild) {
  // The complete offline-maintenance loop: a follow-graph change produces
  // a similarity delta, the delta toggles author-graph edges at λa, and
  // the cover maintainer repairs. The result must match rebuilding the
  // whole pipeline from scratch.
  SocialGraphOptions options;
  options.num_authors = 80;
  options.num_communities = 4;
  options.avg_followees = 10.0;
  options.seed = 55;
  FollowGraph social = GenerateSocialGraph(options);
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const double lambda_a = 0.8;

  const auto pairs = AllPairsSimilarity(social, authors, 0.01);
  DynamicCoverMaintainer maintainer(
      AuthorGraph::FromSimilarities(authors, pairs, lambda_a));

  Rng rng(56);
  for (int round = 0; round < 20; ++round) {
    const AuthorId follower = static_cast<AuthorId>(rng.UniformInt(80));
    const AuthorId followee = static_cast<AuthorId>(rng.UniformInt(80));
    if (follower == followee) continue;
    social.AddFollow(follower, followee);
    social.Finalize();
    // Incremental path: recompute only the affected pairs and apply the
    // resulting edge toggles to the maintained graph (adding a present
    // edge or removing an absent one is a rejected no-op).
    for (const AuthorPairSimilarity& pair :
         SimilarityDeltaForFollowChange(social, follower, followee, authors)) {
      if (pair.similarity >= 1.0 - lambda_a) {
        maintainer.AddEdge(pair.a, pair.b);
      } else {
        maintainer.RemoveEdge(pair.a, pair.b);
      }
    }
  }

  // Scratch path: full recompute from the final follow graph.
  const auto final_pairs = AllPairsSimilarity(social, authors, 0.01);
  const AuthorGraph scratch =
      AuthorGraph::FromSimilarities(authors, final_pairs, lambda_a);
  const AuthorGraph maintained = maintainer.graph();
  EXPECT_EQ(maintained.num_edges(), scratch.num_edges());
  for (AuthorId a : scratch.vertices()) {
    EXPECT_EQ(NeighborList(maintained, a), NeighborList(scratch, a)) << a;
  }
  EXPECT_TRUE(maintainer.Snapshot().IsValidFor(maintained));
}

TEST(DynamicCoverTest, SnapshotFeedsCliqueBin) {
  // End-to-end: maintain, snapshot, diversify — decisions must match a
  // diversifier built on a scratch cover of the same graph.
  Rng rng(77);
  DynamicCoverMaintainer maintainer(testing_util::RandomAuthorGraph(12, 0.3, rng));
  maintainer.AddEdge(0, 1);
  maintainer.RemoveEdge(2, 3);  // may or may not exist; either is fine
  const CliqueCover snapshot = maintainer.Snapshot();
  ASSERT_TRUE(snapshot.IsValidFor(maintainer.graph()));

  const PostStream stream = testing_util::RandomStream(300, 12, 20, rng);
  DiversityThresholds t;
  t.lambda_c = 4;
  t.lambda_t_ms = 400;
  const auto expected =
      testing_util::ReferenceDiversify(stream, t, maintainer.graph());
  CliqueBinDiversifier diversifier(t, &snapshot);
  std::vector<PostId> admitted;
  for (const Post& post : stream) {
    if (diversifier.Offer(post)) admitted.push_back(post.id);
  }
  EXPECT_EQ(admitted, expected);
}

}  // namespace
}  // namespace firehose
