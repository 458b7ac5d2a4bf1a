#include "src/core/component_set.h"

#include <algorithm>
#include <utility>

namespace firehose {

void OwnedDiversifier::Init(Algorithm algorithm, const DiversityThresholds& t,
                            AuthorGraph subgraph) {
  graph = std::move(subgraph);
  if (algorithm == Algorithm::kCliqueBin) {
    cover = std::make_unique<CliqueCover>(CliqueCover::Greedy(graph));
  }
  diversifier = MakeDiversifier(algorithm, t, &graph, cover.get());
}

size_t OwnedDiversifier::ApproxBytes() const {
  size_t bytes = diversifier->ApproxBytes() + graph.ApproxBytes();
  if (cover != nullptr) bytes += cover->ApproxBytes();
  return bytes;
}

ComponentSet::ComponentSet(Algorithm algorithm, const AuthorGraph& graph,
                           std::vector<SharedComponent> components) {
  AuthorId max_author = 0;
  components_.reserve(components.size());
  for (SharedComponent& shared : components) {
    for (AuthorId a : shared.authors) max_author = std::max(max_author, a);
    Component& c = components_.emplace_back();
    c.authors = std::move(shared.authors);
    c.users = std::move(shared.users);
    c.engine = std::make_unique<OwnedDiversifier>();
    c.engine->Init(algorithm, shared.thresholds,
                   graph.InducedSubgraph(c.authors));
  }
  author_components_.assign(static_cast<size_t>(max_author) + 1, {});
  for (size_t i = 0; i < components_.size(); ++i) {
    for (AuthorId a : components_[i].authors) {
      author_components_[a].push_back(i);
    }
  }
}

size_t ComponentSet::OfferBatch(
    std::span<const Post> posts,
    std::vector<MultiUserEngine::BatchDelivery>* deliveries) {
  deliveries->clear();
  for (size_t i = 0; i < posts.size(); ++i) {
    const Post& post = posts[i];
    if (post.author >= author_components_.size()) continue;
    const size_t first = deliveries->size();
    size_t admitting = 0;
    for (size_t index : author_components_[post.author]) {
      Component& c = components_[index];
      Diversifier& diversifier = *c.engine->diversifier;
      const size_t before = diversifier.ApproxBytes();
      if (diversifier.Offer(post)) {
        ++admitting;
        for (UserId user : c.users) {
          deliveries->push_back({static_cast<uint32_t>(i), user});
        }
      }
      live_bin_bytes_ += static_cast<int64_t>(diversifier.ApproxBytes()) -
                         static_cast<int64_t>(before);
    }
    peak_live_bytes_ = std::max(peak_live_bytes_, live_bin_bytes_);
    // One component's owners are already sorted; several interleave.
    if (admitting > 1) {
      std::sort(deliveries->begin() + static_cast<std::ptrdiff_t>(first),
                deliveries->end(),
                [](const MultiUserEngine::BatchDelivery& a,
                   const MultiUserEngine::BatchDelivery& b) {
                  return a.user < b.user;
                });
    }
  }
  return deliveries->size();
}

IngestStats ComponentSet::AggregateStats() const {
  IngestStats total;
  for (const Component& c : components_) {
    total.MergeFrom(c.engine->diversifier->stats());
  }
  // MergeFrom's max over per-component peaks undercounts memory that is
  // resident at the same time in different components' bins. Graphs,
  // covers and routing tables are fixed after construction, so the
  // set-wide high-water is today's total minus today's bins plus the bin
  // peak (Figures 11-16 report RAM).
  total.peak_bytes = static_cast<size_t>(
      static_cast<int64_t>(ApproxBytes()) - live_bin_bytes_ +
      peak_live_bytes_);
  return total;
}

size_t ComponentSet::ApproxBytes() const {
  size_t bytes = 0;
  for (const Component& c : components_) {
    bytes += c.engine->ApproxBytes();
    bytes += c.authors.capacity() * sizeof(AuthorId);
    bytes += c.users.capacity() * sizeof(UserId);
  }
  for (const auto& v : author_components_) {
    bytes += v.capacity() * sizeof(size_t);
  }
  return bytes;
}

}  // namespace firehose
