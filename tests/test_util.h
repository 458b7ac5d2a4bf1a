#ifndef FIREHOSE_TESTS_TEST_UTIL_H_
#define FIREHOSE_TESTS_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "src/author/similarity_graph.h"
#include "src/core/thresholds.h"
#include "src/stream/post.h"
#include "src/util/bitops.h"
#include "src/util/random.h"

namespace firehose {
namespace testing_util {

/// The running example of paper §4 (Figures 5 and 6), authors shifted to
/// 0-based ids: a1..a4 -> 0..3. Triangle {0,1,2} plus edge {2,3}.
inline AuthorGraph PaperExampleGraph() {
  return AuthorGraph::FromEdges({0, 1, 2, 3},
                                {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
}

/// Thresholds used with the paper example posts: λc = 3, λt wide enough
/// that no eviction happens during the example.
inline DiversityThresholds PaperExampleThresholds() {
  DiversityThresholds t;
  t.lambda_c = 3;
  t.lambda_t_ms = 1000;
  return t;
}

/// Posts P1..P5 of Figure 5b with fingerprints engineered so that exactly
/// the paper's coverage relations hold under λc = 3:
///   P3 covered by P1 (distc = 1, authors a3~a1),
///   P5 covered by P4 (distc = 1, authors a3~a4),
///   all other pairs content-far or author-far.
/// Expected diversified stream: {P1, P2, P4}.
inline PostStream PaperExamplePosts() {
  PostStream stream;
  auto add = [&stream](AuthorId author, int64_t time_ms, uint64_t simhash) {
    Post post;
    post.id = static_cast<PostId>(stream.size());
    post.author = author;
    post.time_ms = time_ms;
    post.simhash = simhash;
    stream.push_back(post);
  };
  add(0, 0, 0x0000);  // P1
  add(1, 1, 0x00FF);  // P2: 8 bits from P1
  add(2, 2, 0x0001);  // P3: 1 bit from P1 (covered), 7 from P2
  add(3, 3, 0xF0F0);  // P4: 8 bits from P1, 8 from P2
  add(2, 4, 0xF0F1);  // P5: 1 bit from P4 (covered)
  return stream;
}

/// Brute-force reference solution of SPSD: scans the whole retained
/// sub-stream per post. Used as the oracle for all property tests.
inline std::vector<PostId> ReferenceDiversify(const PostStream& stream,
                                              const DiversityThresholds& t,
                                              const AuthorGraph& graph) {
  std::vector<const Post*> z;
  std::vector<PostId> admitted;
  for (const Post& post : stream) {
    bool covered = false;
    for (const Post* prior : z) {
      if (post.time_ms - prior->time_ms > t.lambda_t_ms) continue;
      if (t.use_content &&
          HammingDistance64(post.simhash, prior->simhash) > t.lambda_c) {
        continue;
      }
      if (t.use_author && prior->author != post.author &&
          !graph.IsNeighbor(post.author, prior->author)) {
        continue;
      }
      covered = true;
      break;
    }
    if (!covered) {
      z.push_back(&post);
      admitted.push_back(post.id);
    }
  }
  return admitted;
}

/// `a`'s neighbors in `graph`, copied out of the row view.
inline std::vector<AuthorId> NeighborList(const AuthorGraph& graph,
                                          AuthorId a) {
  const AuthorGraph::NeighborView view = graph.Neighbors(a);
  return std::vector<AuthorId>(view.begin(), view.end());
}

/// Random Erdős–Rényi-ish author graph over `num_authors` vertices.
inline AuthorGraph RandomAuthorGraph(int num_authors, double edge_prob,
                                     Rng& rng) {
  std::vector<AuthorId> vertices;
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  for (AuthorId a = 0; a < static_cast<AuthorId>(num_authors); ++a) {
    vertices.push_back(a);
    for (AuthorId b = a + 1; b < static_cast<AuthorId>(num_authors); ++b) {
      if (rng.Bernoulli(edge_prob)) edges.emplace_back(a, b);
    }
  }
  return AuthorGraph::FromEdges(vertices, edges);
}

/// Random time-ordered stream whose fingerprints cluster: most posts
/// derive from a recent post by flipping a few bits, so coverage actually
/// fires at small λc.
inline PostStream RandomStream(int num_posts, int num_authors,
                               int64_t max_gap_ms, Rng& rng) {
  PostStream stream;
  int64_t now = 0;
  for (int i = 0; i < num_posts; ++i) {
    Post post;
    post.id = static_cast<PostId>(i);
    post.author = static_cast<AuthorId>(
        rng.UniformInt(static_cast<uint64_t>(num_authors)));
    now += static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(max_gap_ms) + 1));
    post.time_ms = now;
    if (!stream.empty() && rng.Bernoulli(0.5)) {
      const Post& source = stream[rng.UniformInt(stream.size())];
      post.simhash = source.simhash;
      const int flips = static_cast<int>(rng.UniformInt(8));
      for (int f = 0; f < flips; ++f) post.simhash ^= 1ULL << rng.UniformInt(64);
    } else {
      post.simhash = rng.Next();
    }
    stream.push_back(post);
  }
  return stream;
}

}  // namespace testing_util
}  // namespace firehose

#endif  // FIREHOSE_TESTS_TEST_UTIL_H_
