#ifndef FIREHOSE_CORE_COMPONENT_SET_H_
#define FIREHOSE_CORE_COMPONENT_SET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/author/clique_cover.h"
#include "src/author/similarity_graph.h"
#include "src/core/engine.h"
#include "src/core/multi_user.h"

namespace firehose {

/// One diversifier together with the structures it borrows from.
struct OwnedDiversifier {
  AuthorGraph graph;
  std::unique_ptr<CliqueCover> cover;  // only for CliqueBin
  std::unique_ptr<Diversifier> diversifier;

  OwnedDiversifier() = default;
  OwnedDiversifier(OwnedDiversifier&&) = delete;  // pointers into members

  void Init(Algorithm algorithm, const DiversityThresholds& t,
            AuthorGraph subgraph);

  size_t ApproxBytes() const;
};

/// The S_* engines' unit of work (§5), owned in one place: a set of
/// shared components, each with its induced subgraph, clique cover and
/// diversifier, plus the author → component routing. The sequential
/// S_* engine holds every component in one set; a serve shard builds
/// one set from just the components it owns.
/// Components never interact, so the union of the sets' deliveries is
/// the sequential engine's.
class ComponentSet {
 public:
  ComponentSet(Algorithm algorithm, const AuthorGraph& graph,
               std::vector<SharedComponent> components);

  /// Offers a time-ordered burst, post-major: each post goes to every
  /// component routed from its author, in routing order, and the owners
  /// of each admitting component are appended. `*deliveries` (cleared
  /// first) comes out grouped by ascending post_index with users
  /// ascending within a post. Live bin bytes and their peak are updated
  /// per post, so AggregateStats().peak_bytes does not depend on how a
  /// stream is cut into bursts. Returns deliveries->size().
  size_t OfferBatch(std::span<const Post> posts,
                    std::vector<MultiUserEngine::BatchDelivery>* deliveries);

  /// Counters summed over the components, with `peak_bytes` the set's
  /// true concurrent high-water.
  IngestStats AggregateStats() const;

  /// Resident bytes of every component plus the routing index.
  size_t ApproxBytes() const;

  size_t size() const { return components_.size(); }

 private:
  struct Component {
    std::vector<AuthorId> authors;  // sorted
    std::vector<UserId> users;      // owners, sorted
    std::unique_ptr<OwnedDiversifier> engine;
  };

  std::vector<Component> components_;
  std::vector<std::vector<size_t>> author_components_;  // index = author
  // Combined resident bin bytes over all components, maintained by
  // per-offer deltas, and its true peak.
  int64_t live_bin_bytes_ = 0;
  int64_t peak_live_bytes_ = 0;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_COMPONENT_SET_H_
