#ifndef FIREHOSE_NET_PLACEMENT_H_
#define FIREHOSE_NET_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "src/author/follow_graph.h"

namespace firehose {
namespace net {

/// Consistent-hash ring that places author-graph connected components
/// onto shards (DESIGN.md §4i).
///
/// The unit of placement is a *shared component*, never an author: every
/// author of a component lands on the component's shard, so the per-shard
/// diversifier always sees its full similarity neighborhood and the
/// networked deployment reproduces the sequential S_* engine
/// bit-for-bit. Components are keyed by the hash of their sorted author
/// set (ComponentKey), which is stable across restarts regardless of the
/// order components are discovered in.
///
/// Consistent hashing (vnodes on a sorted ring) rather than `key % n`
/// keeps placement stable under shard-count changes: growing the ring by
/// one shard moves only the components whose key falls into the new
/// shard's arcs, about 1/(n+1) of them, instead of reshuffling nearly
/// everything.
class PlacementRing {
 public:
  /// `vnodes_per_shard` trades placement smoothness for ring size; 64
  /// keeps the max/mean shard load under ~1.3 at realistic shard counts.
  explicit PlacementRing(uint32_t num_shards, uint32_t vnodes_per_shard = 64);

  /// Shard owning `key_hash`: the first ring point clockwise from it.
  [[nodiscard]] uint32_t ShardFor(uint64_t key_hash) const;

  uint32_t num_shards() const { return num_shards_; }

 private:
  struct Point {
    uint64_t hash;
    uint32_t shard;
  };

  uint32_t num_shards_;
  std::vector<Point> points_;  ///< sorted by (hash, shard)
};

/// Stable identity of a shared component: order-independent hash of its
/// author set. `authors` need not be pre-sorted; a sorted copy is hashed
/// so two discoveries of the same component always agree.
[[nodiscard]] uint64_t ComponentKey(const std::vector<AuthorId>& authors);

}  // namespace net
}  // namespace firehose

#endif  // FIREHOSE_NET_PLACEMENT_H_
