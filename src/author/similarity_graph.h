#ifndef FIREHOSE_AUTHOR_SIMILARITY_GRAPH_H_
#define FIREHOSE_AUTHOR_SIMILARITY_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/author/follow_graph.h"
#include "src/author/similarity.h"

namespace firehose {

/// Undirected author similarity graph G (paper §4): vertices are authors,
/// with an edge between two authors whose author distance is at most λa
/// (equivalently, cosine similarity at least 1 - λa). Also represents the
/// per-user subgraphs G_i via InducedSubgraph().
///
/// Vertices are a subset of a global AuthorId space; adjacency lists are
/// sorted, so IsNeighbor is O(log degree).
class AuthorGraph {
 public:
  AuthorGraph() = default;

  /// Builds the graph over `vertices` from precomputed pair similarities,
  /// keeping edges with similarity >= 1 - lambda_a. Pairs referencing
  /// authors outside `vertices` are ignored.
  static AuthorGraph FromSimilarities(
      std::vector<AuthorId> vertices,
      const std::vector<AuthorPairSimilarity>& pairs, double lambda_a);

  /// Builds directly from an explicit edge list (used by tests/examples).
  static AuthorGraph FromEdges(
      std::vector<AuthorId> vertices,
      const std::vector<std::pair<AuthorId, AuthorId>>& edges);

  /// The vertex set, sorted ascending.
  const std::vector<AuthorId>& vertices() const { return vertices_; }
  size_t num_vertices() const { return vertices_.size(); }
  uint64_t num_edges() const { return num_edges_; }

  /// True when `a` is a vertex of this graph.
  bool HasVertex(AuthorId a) const;

  /// Sorted neighbors of `a` (empty for non-vertices).
  const std::vector<AuthorId>& Neighbors(AuthorId a) const;

  /// True when {a, b} is an edge. Same-author is *not* a neighbor;
  /// coverage checks treat author(Pi) == author(Pj) separately since
  /// dista(a, a) = 0 always passes the threshold.
  bool IsNeighbor(AuthorId a, AuthorId b) const;

  /// Average degree d of the analysis in §4.4.
  double AvgDegree() const;

  /// Subgraph induced by `subset` (sorted or not; deduplicated internally).
  /// Vertices of `subset` missing from this graph become isolated vertices,
  /// matching a user subscribed to an author with no similar peers.
  AuthorGraph InducedSubgraph(const std::vector<AuthorId>& subset) const;

  /// Connected components; each component's vertex list is sorted and the
  /// components are ordered by their smallest vertex. Isolated vertices
  /// form singleton components. This drives the S_* multi-user engines.
  std::vector<std::vector<AuthorId>> ConnectedComponents() const;

  /// Approximate resident bytes of adjacency storage.
  size_t ApproxBytes() const;

  // Mutators for incremental maintenance (the paper's weekly offline
  // recompute applied as a delta; see DynamicCoverMaintainer). All keep
  // adjacency sorted. AddVertex/RemoveVertex are O(num_vertices);
  // edge mutations are O(degree).

  /// Adds an isolated vertex; no-op if present.
  void AddVertex(AuthorId a);

  /// Adds edge {a, b}. Returns false (no change) for self-loops, unknown
  /// endpoints or existing edges.
  bool AddEdge(AuthorId a, AuthorId b);

  /// Removes edge {a, b}; false if absent.
  bool RemoveEdge(AuthorId a, AuthorId b);

  /// Removes a vertex and all incident edges; false if absent.
  bool RemoveVertex(AuthorId a);

 private:
  int IndexOf(AuthorId a) const;  // -1 when absent

  std::vector<AuthorId> vertices_;               // sorted
  std::vector<std::vector<AuthorId>> adjacency_;  // parallel to vertices_
  uint64_t num_edges_ = 0;
  static const std::vector<AuthorId> kEmpty;
};

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
};

/// An AuthorGraph in its own vertex-index space: vertex i is
/// vertices()[i]. Immutable once built, so threads may share one.
class IndexedGraph {
 public:
  static constexpr uint32_t kNoVertex = UINT32_MAX;

  explicit IndexedGraph(const AuthorGraph& graph);

  const std::vector<AuthorId>& vertices() const { return vertices_; }
  const CsrGraph& csr() const { return csr_; }

  /// Vertex index of `a`, or kNoVertex when `a` is not a vertex.
  uint32_t IndexOf(AuthorId a) const;

 private:
  std::vector<AuthorId> vertices_;  // sorted
  CsrGraph csr_;
};

/// Induces subgraphs of one IndexedGraph. The marker that makes an induce
/// linear is keyed by vertex index (never by AuthorId, which may be
/// sparse up to UINT32_MAX) and reused across calls, so an inducer
/// belongs to one thread; the graph it reads may be shared.
class SubgraphInducer {
 public:
  /// `graph` must outlive the inducer.
  explicit SubgraphInducer(const IndexedGraph& graph);

  /// Writes the subgraph induced by `subset` (sorted, unique) to `*out`:
  /// local vertex i is subset[i], and members absent from the graph are
  /// isolated, as in AuthorGraph::InducedSubgraph. Costs a binary search
  /// per member plus the members' degrees in the whole graph.
  void Induce(std::span<const AuthorId> subset, CsrGraph* out);

 private:
  const IndexedGraph& graph_;
  std::vector<uint32_t> local_;    // vertex -> local index + 1; 0 = not in
  std::vector<uint32_t> members_;  // local index -> vertex (or kNoVertex)
};

}  // namespace firehose

#endif  // FIREHOSE_AUTHOR_SIMILARITY_GRAPH_H_
