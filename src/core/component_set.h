#ifndef FIREHOSE_CORE_COMPONENT_SET_H_
#define FIREHOSE_CORE_COMPONENT_SET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/author/similarity_graph.h"
#include "src/core/engine.h"
#include "src/core/multi_user.h"

namespace firehose {

/// The S_* engines' unit of work (§5), flattened for the decide. Each
/// shared component's induced subgraph (CliqueBin: and greedy cover) is
/// built, turned into bins in one set-wide array plus per-author routes
/// (per component of the author: the bins to scan and to insert into),
/// and freed; the decide walks the routes through OfferToBins. The S_*
/// engine holds every component in one set; a serve shard, the ones it
/// owns. Components never interact, so the sets' deliveries union to
/// the sequential engine's.
class ComponentSet {
 public:
  /// `graph` is read during construction only. Each component is
  /// induced from it and, for CliqueBin, covered by
  /// CliqueCover::GreedyCliques; both are linear in the component's
  /// adjacency and allocate nothing per vertex.
  ComponentSet(Algorithm algorithm, const AuthorGraph& graph,
               std::vector<SharedComponent> components);

  /// Offers a time-ordered burst, post-major: each post goes to every
  /// component routed from its author, in component order, and the
  /// owners of each admitting component are appended. `*deliveries`
  /// (cleared first) comes out grouped by ascending post_index with users
  /// ascending within a post. Live bin bytes and their peak are updated
  /// per post, so AggregateStats().peak_bytes does not depend on how a
  /// stream is cut into bursts. Returns deliveries->size().
  size_t OfferBatch(std::span<const Post> posts,
                    std::vector<MultiUserEngine::BatchDelivery>* deliveries);

  /// Counters summed over the components, with `peak_bytes` (and
  /// `sum_peak_bytes`) the set's true concurrent high-water.
  IngestStats AggregateStats() const;

  /// Resident bytes of the bins, routes and per-component state.
  size_t ApproxBytes() const;

  size_t size() const { return components_.size(); }

  /// Bins in the set (CliqueBin: Σ cliques over the components).
  size_t num_bins() const { return bins_.size(); }

  /// Bin ids over every route (CliqueBin: Σ clique memberships).
  size_t num_route_bins() const { return route_bins_.size(); }

  /// Bins evicted and scanned so far, over every component offer.
  uint64_t bins_scanned() const { return bins_scanned_; }

 private:
  /// One (author, component) pair: route_bins_[begin, scan_end) are
  /// scanned and route_bins_[begin, end) inserted into.
  struct Route {
    uint32_t component;
    uint32_t begin;
    uint32_t scan_end;
    uint32_t end;
  };

  struct Component {
    uint32_t thresholds;    // index into thresholds_
    uint32_t owners_begin;  // owners_[owners_begin, owners_end), sorted
    uint32_t owners_end;
  };

  Algorithm algorithm_;
  std::string evict_event_;  // "<Algorithm>.evict" trace instant
  // UniBin's author dimension: the graph induced over the set's authors.
  // Empty for NeighborBin and CliqueBin, whose routes already hold it.
  AuthorGraph author_graph_;
  std::vector<PostBin> bins_;
  std::vector<uint32_t> route_offsets_;  // author a: routes_[off[a], off[a+1])
  std::vector<Route> routes_;
  std::vector<uint32_t> route_bins_;  // global bin ids
  std::vector<Component> components_;
  std::vector<UserId> owners_;
  std::vector<DiversityThresholds> thresholds_;  // distinct, usually one
  // Counters summed over the components: nothing reads them apart, and
  // 64 bytes per component would outweigh a small component's bins.
  IngestStats stats_;
  // Combined ring bytes of bins_, grown only by Push, and its peak.
  int64_t live_bin_bytes_ = 0;
  int64_t peak_live_bytes_ = 0;
  uint64_t bins_scanned_ = 0;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_COMPONENT_SET_H_
