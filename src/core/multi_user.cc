#include "src/core/multi_user.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/core/component_set.h"
#include "src/util/hash.h"

namespace firehose {

namespace {

std::string EngineName(const char* prefix, Algorithm algorithm) {
  return std::string(prefix) + std::string(AlgorithmName(algorithm));
}

/// M_*: independent per-user diversifiers.
class MUserEngine final : public MultiUserEngine {
  /// One user's diversifier and the G_i (CliqueBin: and cover) it
  /// borrows; heap-held so those stay put.
  struct PerUser {
    AuthorGraph graph;
    std::unique_ptr<CliqueCover> cover;
    std::unique_ptr<Diversifier> diversifier;
  };

 public:
  MUserEngine(Algorithm algorithm, const DiversityThresholds& t,
              const AuthorGraph& graph, const std::vector<User>& users)
      : name_(EngineName("M_", algorithm)) {
    AuthorId max_author = 0;
    for (const User& user : users) {
      for (AuthorId a : user.subscriptions) max_author = std::max(max_author, a);
    }
    subscribers_.assign(static_cast<size_t>(max_author) + 1, {});
    engines_.resize(users.size());
    user_ids_.resize(users.size());
    for (size_t u = 0; u < users.size(); ++u) {
      user_ids_[u] = users[u].id;
      PerUser& e = *(engines_[u] = std::make_unique<PerUser>());
      e.graph = graph.InducedSubgraph(users[u].subscriptions);
      if (algorithm == Algorithm::kCliqueBin) {
        e.cover = std::make_unique<CliqueCover>(CliqueCover::Greedy(e.graph));
      }
      e.diversifier =
          MakeDiversifier(algorithm, users[u].custom_thresholds.value_or(t),
                          &e.graph, e.cover.get());
      for (AuthorId a : e.graph.vertices()) {
        subscribers_[a].push_back(u);
      }
    }
  }

  void Offer(const Post& post, std::vector<UserId>* delivered) override {
    delivered->clear();
    if (post.author >= subscribers_.size()) return;
    for (size_t u : subscribers_[post.author]) {
      Diversifier& diversifier = *engines_[u]->diversifier;
      const size_t before = diversifier.ApproxBytes();
      if (diversifier.Offer(post)) {
        delivered->push_back(user_ids_[u]);
      }
      live_bin_bytes_ += static_cast<int64_t>(diversifier.ApproxBytes()) -
                         static_cast<int64_t>(before);
    }
    peak_live_bytes_ = std::max(peak_live_bytes_, live_bin_bytes_);
    std::sort(delivered->begin(), delivered->end());
  }

  IngestStats AggregateStats() const override {
    IngestStats total;
    for (const auto& e : engines_) total.MergeFrom(e->diversifier->stats());
    // MergeFrom's max over per-user peaks undercounts memory that is
    // resident at the same time in different users' bins; this engine
    // tracks the combined bin footprint per offer. Graphs, covers and
    // routing tables are fixed after construction, so the engine-wide
    // high-water is today's total minus today's bins plus the bin peak
    // (Figures 11-16 report RAM).
    total.peak_bytes = static_cast<size_t>(
        static_cast<int64_t>(ApproxBytes()) - live_bin_bytes_ +
        peak_live_bytes_);
    return total;
  }

  size_t ApproxBytes() const override {
    size_t bytes = 0;
    for (const auto& e : engines_) {
      bytes += e->diversifier->ApproxBytes() + e->graph.ApproxBytes() +
               (e->cover != nullptr ? e->cover->ApproxBytes() : 0);
    }
    for (const auto& subs : subscribers_) {
      bytes += subs.capacity() * sizeof(size_t);
    }
    return bytes;
  }

  std::string_view name() const override { return name_; }
  size_t num_diversifiers() const override { return engines_.size(); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<PerUser>> engines_;  // per users index
  std::vector<UserId> user_ids_;                   // per users index
  std::vector<std::vector<size_t>> subscribers_;   // author -> indices
  // Combined resident bin bytes over all users, maintained by per-offer
  // deltas (ApproxBytes is O(1) per diversifier), and its true peak.
  int64_t live_bin_bytes_ = 0;
  int64_t peak_live_bytes_ = 0;
};

uint64_t AuthorSetKey(const std::vector<AuthorId>& sorted_authors) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (AuthorId a : sorted_authors) h = HashCombine(h, Fmix64(a));
  return h;
}

uint64_t ThresholdsKey(const DiversityThresholds& t) {
  uint64_t h = Fmix64(static_cast<uint64_t>(t.lambda_c));
  h = HashCombine(h, Fmix64(static_cast<uint64_t>(t.lambda_t_ms)));
  uint64_t lambda_a_bits;
  static_assert(sizeof(lambda_a_bits) == sizeof(t.lambda_a));
  std::memcpy(&lambda_a_bits, &t.lambda_a, sizeof(lambda_a_bits));
  h = HashCombine(h, Fmix64(lambda_a_bits));
  h = HashCombine(h, (t.use_content ? 2u : 0u) | (t.use_author ? 1u : 0u));
  return h;
}

/// S_*: shared per-distinct-component diversifiers, all in one set.
class SUserEngine final : public MultiUserEngine {
 public:
  SUserEngine(Algorithm algorithm, const DiversityThresholds& t,
              const AuthorGraph& graph, const std::vector<User>& users)
      : name_(EngineName("S_", algorithm)),
        set_(algorithm, graph, ComputeSharedComponents(t, graph, users)) {}

  void Offer(const Post& post, std::vector<UserId>* delivered) override {
    set_.OfferBatch(std::span<const Post>(&post, 1), &scratch_);
    delivered->clear();
    for (const BatchDelivery& d : scratch_) delivered->push_back(d.user);
  }

  size_t OfferBatch(std::span<const Post> posts,
                    std::vector<BatchDelivery>* deliveries) override {
    return set_.OfferBatch(posts, deliveries);
  }

  IngestStats AggregateStats() const override { return set_.AggregateStats(); }
  size_t ApproxBytes() const override { return set_.ApproxBytes(); }
  std::string_view name() const override { return name_; }
  size_t num_diversifiers() const override { return set_.size(); }

 private:
  std::string name_;
  ComponentSet set_;
  std::vector<BatchDelivery> scratch_;
};

}  // namespace

std::vector<SharedComponent> ComputeSharedComponents(
    const DiversityThresholds& t, const AuthorGraph& graph,
    const std::vector<User>& users) {
  // Key every connected component of every user's G_i by its exact
  // author set AND the user's effective thresholds; identical keys share
  // one component (a customized user gets private components).
  std::vector<SharedComponent> components;
  std::unordered_map<uint64_t, std::vector<size_t>> by_key;
  constexpr size_t kNotFound = static_cast<size_t>(-1);
  SubgraphInducer inducer(graph);
  std::vector<AuthorId> subscriptions;
  CsrGraph gi;
  std::vector<uint32_t> component_offsets;
  std::vector<uint32_t> component_members;
  std::vector<AuthorId> component;
  for (const User& user : users) {
    const DiversityThresholds user_t = user.custom_thresholds.value_or(t);
    const uint64_t thresholds_key = ThresholdsKey(user_t);
    subscriptions = user.subscriptions;
    std::sort(subscriptions.begin(), subscriptions.end());
    subscriptions.erase(
        std::unique(subscriptions.begin(), subscriptions.end()),
        subscriptions.end());
    inducer.Induce(subscriptions, &gi);
    // Components in order of their smallest author, each sorted.
    gi.ConnectedComponents(&component_offsets, &component_members);
    for (size_t k = 0; k + 1 < component_offsets.size(); ++k) {
      component.clear();
      for (uint32_t i = component_offsets[k]; i < component_offsets[k + 1];
           ++i) {
        component.push_back(subscriptions[component_members[i]]);
      }

      std::vector<size_t>& same_key =
          by_key[HashCombine(AuthorSetKey(component), thresholds_key)];
      size_t index = kNotFound;
      for (size_t cand : same_key) {
        if (components[cand].authors == component &&
            components[cand].thresholds == user_t) {
          index = cand;
          break;
        }
      }
      if (index == kNotFound) {
        index = components.size();
        same_key.push_back(index);
        components.push_back(SharedComponent{component, {}, user_t});
      }
      components[index].users.push_back(user.id);
    }
  }
  for (SharedComponent& c : components) {
    std::sort(c.users.begin(), c.users.end());
    c.users.erase(std::unique(c.users.begin(), c.users.end()), c.users.end());
  }
  return components;
}

std::unique_ptr<MultiUserEngine> MakeMUserEngine(
    Algorithm algorithm, const DiversityThresholds& t,
    const AuthorGraph& graph, const std::vector<User>& users) {
  return std::make_unique<MUserEngine>(algorithm, t, graph, users);
}

std::unique_ptr<MultiUserEngine> MakeSUserEngine(
    Algorithm algorithm, const DiversityThresholds& t,
    const AuthorGraph& graph, const std::vector<User>& users) {
  return std::make_unique<SUserEngine>(algorithm, t, graph, users);
}

}  // namespace firehose
