#ifndef FIREHOSE_AUTHOR_SIMILARITY_GRAPH_H_
#define FIREHOSE_AUTHOR_SIMILARITY_GRAPH_H_

#include <cstdint>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "src/author/follow_graph.h"
#include "src/author/similarity.h"

namespace firehose {

/// An undirected graph over vertex indices 0..num_vertices()-1 in
/// compressed sparse rows: the neighbors of `v` are
/// neighbors[offsets[v] .. offsets[v + 1]), ascending, and each edge is
/// stored in both of its rows.
struct CsrGraph {
  std::vector<uint32_t> offsets = {0};
  std::vector<uint32_t> neighbors;

  uint32_t num_vertices() const {
    return static_cast<uint32_t>(offsets.size() - 1);
  }
  std::span<const uint32_t> Row(uint32_t v) const {
    return std::span<const uint32_t>(neighbors)
        .subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }

  /// Connected components, flat: component k is
  /// members[offsets[k] .. offsets[k + 1]), ascending, and components
  /// come in order of their smallest vertex. Both outputs are
  /// overwritten, so callers may reuse them.
  void ConnectedComponents(std::vector<uint32_t>* offsets,
                           std::vector<uint32_t>* members) const;
};

/// Undirected author similarity graph G (paper §4): vertices are authors,
/// with an edge between two authors whose author distance is at most λa
/// (equivalently, cosine similarity at least 1 - λa). Also represents the
/// per-user subgraphs G_i via InducedSubgraph().
///
/// Vertices are a sorted subset of a global AuthorId space; vertex index
/// i is vertices()[i], and the edges are a CsrGraph over those indices.
/// Immutable once built, so threads may share one.
class AuthorGraph {
 public:
  static constexpr uint32_t kNoVertex = UINT32_MAX;

  /// Maps a vertex index to its author.
  struct IdOf {
    const AuthorId* ids;
    AuthorId operator()(uint32_t v) const { return ids[v]; }
  };
  /// One vertex's neighbors as ascending AuthorIds: a view over its row.
  using NeighborView =
      std::ranges::transform_view<std::span<const uint32_t>, IdOf>;

  AuthorGraph() = default;

  /// Builds the graph over `vertices` from precomputed pair similarities,
  /// keeping edges with similarity >= 1 - lambda_a. Pairs referencing
  /// authors outside `vertices` are ignored.
  static AuthorGraph FromSimilarities(
      std::vector<AuthorId> vertices,
      const std::vector<AuthorPairSimilarity>& pairs, double lambda_a);

  /// Builds directly from an explicit edge list. Self-loops, repeated
  /// edges and edges with an endpoint outside `vertices` are dropped.
  static AuthorGraph FromEdges(
      std::vector<AuthorId> vertices,
      const std::vector<std::pair<AuthorId, AuthorId>>& edges);

  /// The vertex set, sorted ascending.
  const std::vector<AuthorId>& vertices() const { return vertices_; }
  /// The edges over vertex indices.
  const CsrGraph& csr() const { return csr_; }
  size_t num_vertices() const { return vertices_.size(); }
  uint64_t num_edges() const { return csr_.neighbors.size() / 2; }

  /// Vertex index of `a`, or kNoVertex when `a` is not a vertex.
  uint32_t IndexOf(AuthorId a) const;

  /// True when `a` is a vertex of this graph.
  bool HasVertex(AuthorId a) const { return IndexOf(a) != kNoVertex; }

  /// Neighbors of `a`, ascending (empty for non-vertices).
  NeighborView Neighbors(AuthorId a) const;

  /// True when {a, b} is an edge. Same-author is *not* a neighbor;
  /// coverage checks treat author(Pi) == author(Pj) separately since
  /// dista(a, a) = 0 always passes the threshold.
  bool IsNeighbor(AuthorId a, AuthorId b) const;

  /// Average degree d of the analysis in §4.4.
  double AvgDegree() const;

  /// Subgraph induced by `subset` (sorted or not; deduplicated internally),
  /// built by a SubgraphInducer. Vertices of `subset` missing from this
  /// graph become isolated vertices, matching a user subscribed to an
  /// author with no similar peers.
  AuthorGraph InducedSubgraph(const std::vector<AuthorId>& subset) const;

  /// Connected components; each component's vertex list is sorted and the
  /// components are ordered by their smallest vertex. Isolated vertices
  /// form singleton components.
  std::vector<std::vector<AuthorId>> ConnectedComponents() const;

  /// Approximate resident bytes of the vertices and the CSR.
  size_t ApproxBytes() const;

 private:
  std::vector<AuthorId> vertices_;  // sorted
  CsrGraph csr_;
};

/// Induces subgraphs of one AuthorGraph. The marker that makes an induce
/// linear is keyed by vertex index (never by AuthorId, which may be
/// sparse up to UINT32_MAX) and reused across calls, so an inducer
/// belongs to one thread; the graph it reads may be shared.
class SubgraphInducer {
 public:
  /// `graph` must outlive the inducer.
  explicit SubgraphInducer(const AuthorGraph& graph);

  /// Writes the subgraph induced by `subset` (sorted, unique) to `*out`:
  /// local vertex i is subset[i], and members absent from the graph are
  /// isolated. Costs a binary search per member plus the members' degrees
  /// in the whole graph.
  void Induce(std::span<const AuthorId> subset, CsrGraph* out);

 private:
  const AuthorGraph& graph_;
  std::vector<uint32_t> local_;    // vertex -> local index + 1; 0 = not in
  std::vector<uint32_t> members_;  // local index -> vertex (or kNoVertex)
};

}  // namespace firehose

#endif  // FIREHOSE_AUTHOR_SIMILARITY_GRAPH_H_
