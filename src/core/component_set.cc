#include "src/core/component_set.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "src/author/clique_cover.h"
#include "src/core/coverage_kernel.h"

namespace firehose {

ComponentSet::ComponentSet(Algorithm algorithm, const AuthorGraph& graph,
                           std::vector<SharedComponent> components)
    : algorithm_(algorithm),
      evict_event_(std::string(AlgorithmName(algorithm)) + ".evict") {
  // Routes and their bin ids come out component by component. Below, the
  // routes are regrouped by author (stably: component order within an
  // author) and their bin ids copied so an author's ids are contiguous.
  std::vector<std::pair<AuthorId, Route>> routes;
  std::vector<uint32_t> bin_ids;
  std::vector<AuthorId> set_authors;
  uint32_t num_bins = 0;
  SubgraphInducer inducer(graph);
  CsrGraph subgraph;  // local vertex i is the component's authors[i]
  // CliqueBin: the greedy cover of `subgraph`; local vertex i lies in
  // cliques clique_ids[clique_offsets[i] .. clique_offsets[i + 1]).
  LocalCliques cliques;
  std::vector<uint32_t> clique_offsets;
  std::vector<uint32_t> clique_ids;
  std::vector<uint32_t> clique_fill;
  components_.reserve(components.size());
  for (const SharedComponent& shared : components) {
    const auto component = static_cast<uint32_t>(components_.size());
    const auto t = static_cast<uint32_t>(
        std::find(thresholds_.begin(), thresholds_.end(), shared.thresholds) -
        thresholds_.begin());
    if (t == thresholds_.size()) thresholds_.push_back(shared.thresholds);
    const auto owners_begin = static_cast<uint32_t>(owners_.size());
    owners_.insert(owners_.end(), shared.users.begin(), shared.users.end());
    components_.push_back(
        Component{t, owners_begin, static_cast<uint32_t>(owners_.size())});

    const std::vector<AuthorId>& authors = shared.authors;
    const auto n = static_cast<uint32_t>(authors.size());
    if (algorithm != Algorithm::kUniBin) inducer.Induce(authors, &subgraph);
    if (algorithm == Algorithm::kCliqueBin) {
      // Author2Cliques by counting sort; visiting cliques in order keeps
      // each author's clique ids ascending.
      CliqueCover::GreedyCliques(subgraph, &cliques);
      clique_offsets.assign(n + 1, 0);
      for (uint32_t m : cliques.members) ++clique_offsets[m + 1];
      std::partial_sum(clique_offsets.begin(), clique_offsets.end(),
                       clique_offsets.begin());
      clique_ids.resize(cliques.members.size());
      clique_fill.assign(clique_offsets.begin(), clique_offsets.end() - 1);
      for (uint32_t k = 0; k < cliques.size(); ++k) {
        for (uint32_t j = cliques.offsets[k]; j < cliques.offsets[k + 1]; ++j) {
          clique_ids[clique_fill[cliques.members[j]]++] = k;
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      const auto begin = static_cast<uint32_t>(bin_ids.size());
      switch (algorithm) {
        case Algorithm::kUniBin:  // the component's one bin
          bin_ids.push_back(num_bins);
          break;
        case Algorithm::kNeighborBin:  // bin(a), then each neighbor's bin
          bin_ids.push_back(num_bins + i);
          for (uint32_t j : subgraph.Row(i)) bin_ids.push_back(num_bins + j);
          break;
        case Algorithm::kCliqueBin:  // the bins of the author's cliques
          for (uint32_t j = clique_offsets[i]; j < clique_offsets[i + 1]; ++j) {
            bin_ids.push_back(num_bins + clique_ids[j]);
          }
          break;
      }
      const auto end = static_cast<uint32_t>(bin_ids.size());
      const uint32_t scan_end =
          algorithm == Algorithm::kCliqueBin ? end : begin + 1;
      routes.emplace_back(authors[i], Route{component, begin, scan_end, end});
    }
    switch (algorithm) {
      case Algorithm::kUniBin:
        set_authors.insert(set_authors.end(), authors.begin(), authors.end());
        num_bins += 1;
        break;
      case Algorithm::kNeighborBin:
        num_bins += n;
        break;
      case Algorithm::kCliqueBin:
        num_bins += static_cast<uint32_t>(cliques.size());
        break;
    }
  }
  if (algorithm == Algorithm::kUniBin) {
    author_graph_ = graph.InducedSubgraph(set_authors);
  }
  bins_.resize(num_bins);

  std::stable_sort(routes.begin(), routes.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!routes.empty()) {
    route_offsets_.assign(size_t{routes.back().first} + 2, 0);
  }
  routes_.reserve(routes.size());
  route_bins_.reserve(bin_ids.size());
  for (const auto& [author, route] : routes) {
    ++route_offsets_[author + 1];
    const auto begin = static_cast<uint32_t>(route_bins_.size());
    route_bins_.insert(route_bins_.end(), bin_ids.begin() + route.begin,
                       bin_ids.begin() + route.end);
    routes_.push_back(Route{route.component, begin,
                            begin + (route.scan_end - route.begin),
                            static_cast<uint32_t>(route_bins_.size())});
  }
  std::partial_sum(route_offsets_.begin(), route_offsets_.end(),
                   route_offsets_.begin());
}

size_t ComponentSet::OfferBatch(
    std::span<const Post> posts,
    std::vector<MultiUserEngine::BatchDelivery>* deliveries) {
  deliveries->clear();
  for (size_t i = 0; i < posts.size(); ++i) {
    const Post& post = posts[i];
    if (size_t{post.author} + 1 >= route_offsets_.size()) continue;
    // NeighborBin and CliqueBin bins hold only similar authors' posts.
    auto author_similar = [&](AuthorId other) {
      return algorithm_ != Algorithm::kUniBin ||
             author_graph_.IsNeighbor(post.author, other);
    };
    const size_t first = deliveries->size();
    size_t admitting = 0;
    const uint32_t routes_end = route_offsets_[post.author + 1];
    for (uint32_t r = route_offsets_[post.author]; r < routes_end; ++r) {
      const Route& route = routes_[r];
      const Component& c = components_[route.component];
      const DiversityThresholds& t = thresholds_[c.thresholds];
      const uint32_t* ids = route_bins_.data() + route.begin;
      const BinOfferResult offer = OfferToBins(
          post, post.time_ms - t.lambda_t_ms, route.scan_end - route.begin,
          route.end - route.begin,
          [&](size_t k) -> PostBin& { return bins_[ids[k]]; },
          SimHashScan(post, t, author_similar), evict_event_.c_str(), &stats_);
      bins_scanned_ += offer.bins_scanned;
      live_bin_bytes_ += static_cast<int64_t>(offer.grown_bytes);
      if (offer.admitted) {
        ++admitting;
        for (uint32_t o = c.owners_begin; o < c.owners_end; ++o) {
          deliveries->push_back({static_cast<uint32_t>(i), owners_[o]});
        }
      }
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
  IngestStats total = stats_;
  // Only the rings grow after construction, so the set-wide high-water
  // is today's total minus today's rings plus the ring peak (Figures
  // 11-16 report RAM). Components share one bin array and are not
  // tracked apart, so both peak bounds are this one.
  total.peak_bytes = static_cast<size_t>(
      static_cast<int64_t>(ApproxBytes()) - live_bin_bytes_ +
      peak_live_bytes_);
  total.sum_peak_bytes = total.peak_bytes;
  return total;
}

size_t ComponentSet::ApproxBytes() const {
  // Only UniBin holds a graph; the others' empty one is not counted.
  const size_t graph_bytes =
      algorithm_ == Algorithm::kUniBin ? author_graph_.ApproxBytes() : 0;
  return static_cast<size_t>(live_bin_bytes_) +
         bins_.capacity() * sizeof(PostBin) + graph_bytes +
         route_offsets_.capacity() * sizeof(uint32_t) +
         routes_.capacity() * sizeof(Route) +
         route_bins_.capacity() * sizeof(uint32_t) +
         components_.capacity() * sizeof(Component) +
         owners_.capacity() * sizeof(UserId) +
         thresholds_.capacity() * sizeof(DiversityThresholds);
}

}  // namespace firehose
