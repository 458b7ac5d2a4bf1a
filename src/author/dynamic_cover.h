#ifndef FIREHOSE_AUTHOR_DYNAMIC_COVER_H_
#define FIREHOSE_AUTHOR_DYNAMIC_COVER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/author/clique_cover.h"
#include "src/author/similarity_graph.h"

namespace firehose {

/// Incremental maintenance of the author similarity graph and its clique
/// edge cover.
///
/// The paper assumes both are recomputed offline "once every week" (§3,
/// §4.3). In a live service the similarity deltas between two weekly runs
/// are small (followee sets drift slowly), so recomputing the greedy cover
/// from scratch wastes work. This maintainer applies edge/vertex deltas
/// and repairs only the cliques they touch:
///
///  * AddEdge {u,v}: extend an existing clique of u (or v) whose members
///    are all adjacent to the other endpoint, else open a new clique
///    seeded with {u,v} and grown greedily.
///  * RemoveEdge {u,v}: every clique containing both endpoints is
///    dissolved; its still-present edges that lost their last covering
///    clique are re-covered greedily.
///  * AddAuthor / RemoveAuthor: singleton bookkeeping plus the edge rules.
///
/// Invariant after every operation: `Snapshot()` is a valid clique edge
/// cover of `graph()` (validated by the dynamic_cover property tests
/// against CliqueCover::IsValidFor).
///
/// The maintainer is the one owner of a mutable author graph; AuthorGraph
/// itself is immutable. Consumers take immutable snapshots of both the
/// graph and the cover: CliqueBin keys its bins by CliqueId, so a
/// running diversifier keeps using the snapshot it was built with and
/// switches to a fresh snapshot at a window boundary — the same
/// operational model as the paper's weekly recompute, at a fraction of
/// the cost.
class DynamicCoverMaintainer {
 public:
  /// Copies `graph` into the maintainer's own mutable adjacency and
  /// builds the initial greedy cover.
  explicit DynamicCoverMaintainer(const AuthorGraph& graph);

  /// An immutable snapshot of the maintained graph, built from the
  /// whole graph on every call; repairs never build one.
  AuthorGraph graph() const;

  /// Adds an isolated author with a singleton clique. No-op if present.
  void AddAuthor(AuthorId a);

  /// Removes an author and its incident edges; false if absent.
  bool RemoveAuthor(AuthorId a);

  /// Adds a similarity edge and repairs the cover. False if rejected
  /// (self-loop, unknown endpoint, already present).
  bool AddEdge(AuthorId a, AuthorId b);

  /// Removes a similarity edge and repairs the cover; false if absent.
  bool RemoveEdge(AuthorId a, AuthorId b);

  /// Materializes the current cover (validated snapshot for CliqueBin).
  CliqueCover Snapshot() const;

  /// Number of live cliques.
  size_t num_cliques() const { return live_cliques_; }

  /// Repair-work counters since construction.
  uint64_t cliques_created() const { return cliques_created_; }
  uint64_t cliques_dissolved() const { return cliques_dissolved_; }

 private:
  using SlotId = uint32_t;
  static constexpr SlotId kDead = static_cast<SlotId>(-1);

  /// One author of the maintained graph.
  struct Author {
    std::vector<AuthorId> neighbors;  // sorted
    std::vector<SlotId> cliques;      // live cliques holding the author
  };

  bool HasVertex(AuthorId a) const { return authors_.count(a) != 0; }
  bool IsNeighbor(AuthorId a, AuthorId b) const;
  /// Sorted neighbors of vertex `a`.
  const std::vector<AuthorId>& NeighborsOf(AuthorId a) const {
    return authors_.at(a).neighbors;
  }

  /// Cliques containing `a`; empty list for unknown authors.
  const std::vector<SlotId>& CliquesOf(AuthorId a) const;

  bool SharesClique(AuthorId a, AuthorId b) const;
  void AddCliqueMember(SlotId slot, AuthorId member);
  SlotId NewClique(std::vector<AuthorId> members);
  void DissolveClique(SlotId slot);
  void EnsureSingleton(AuthorId a);
  /// Greedy clique around uncovered edge {a, b} (mirrors
  /// CliqueCover::Greedy's growth rule with "uncovered" = no shared
  /// clique).
  void CoverEdge(AuthorId a, AuthorId b);

  // The graph as sorted adjacency per author, so an edge or vertex delta
  // costs its endpoints' degrees, not the graph's size.
  std::unordered_map<AuthorId, Author> authors_;
  std::vector<std::vector<AuthorId>> cliques_;  // slot -> members (sorted)
  std::vector<SlotId> free_slots_;
  size_t live_cliques_ = 0;
  uint64_t cliques_created_ = 0;
  uint64_t cliques_dissolved_ = 0;
  static const std::vector<SlotId> kNoCliques;
};

}  // namespace firehose

#endif  // FIREHOSE_AUTHOR_DYNAMIC_COVER_H_
