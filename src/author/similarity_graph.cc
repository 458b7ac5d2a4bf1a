#include "src/author/similarity_graph.h"

#include <algorithm>

namespace firehose {

namespace {

std::vector<AuthorId> SortedUnique(std::vector<AuthorId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

void CsrGraph::ConnectedComponents(std::vector<uint32_t>* offsets,
                                   std::vector<uint32_t>* members) const {
  const uint32_t n = num_vertices();
  offsets->assign(1, 0);
  members->clear();
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t root = 0; root < n; ++root) {
    if (seen[root] != 0) continue;
    // Breadth-first, with the component's own slice of `members` as the
    // queue; a root is the smallest vertex of its component.
    const size_t begin = members->size();
    seen[root] = 1;
    members->push_back(root);
    for (size_t head = begin; head < members->size(); ++head) {
      for (uint32_t w : Row((*members)[head])) {
        if (seen[w] == 0) {
          seen[w] = 1;
          members->push_back(w);
        }
      }
    }
    std::sort(members->begin() + static_cast<std::ptrdiff_t>(begin),
              members->end());
    offsets->push_back(static_cast<uint32_t>(members->size()));
  }
}

AuthorGraph AuthorGraph::FromSimilarities(
    std::vector<AuthorId> vertices,
    const std::vector<AuthorPairSimilarity>& pairs, double lambda_a) {
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  const double min_similarity = 1.0 - lambda_a;
  for (const AuthorPairSimilarity& p : pairs) {
    if (p.similarity >= min_similarity) edges.emplace_back(p.a, p.b);
  }
  return FromEdges(std::move(vertices), edges);
}

AuthorGraph AuthorGraph::FromEdges(
    std::vector<AuthorId> vertices,
    const std::vector<std::pair<AuthorId, AuthorId>>& edges) {
  AuthorGraph g;
  g.vertices_ = SortedUnique(std::move(vertices));
  const auto n = static_cast<uint32_t>(g.vertices_.size());
  // Both directions of every kept edge, placed into rows by a counting
  // sort; each row is then sorted and its repeats dropped in place.
  std::vector<std::pair<uint32_t, uint32_t>> arcs;
  arcs.reserve(edges.size());
  std::vector<uint32_t>& offsets = g.csr_.offsets;
  offsets.assign(size_t{n} + 1, 0);
  for (const auto& [a, b] : edges) {
    const uint32_t ia = g.IndexOf(a);
    const uint32_t ib = g.IndexOf(b);
    if (ia == ib || ia == kNoVertex || ib == kNoVertex) continue;
    arcs.emplace_back(ia, ib);
    ++offsets[ia + 1];
    ++offsets[ib + 1];
  }
  for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<uint32_t>& neighbors = g.csr_.neighbors;
  neighbors.resize(offsets[n]);
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (const auto& [ia, ib] : arcs) {
    neighbors[fill[ia]++] = ib;
    neighbors[fill[ib]++] = ia;
  }
  uint32_t kept = 0;
  for (uint32_t v = 0; v < n; ++v) {
    const auto first = neighbors.begin() + offsets[v];
    const auto last = neighbors.begin() + offsets[v + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    offsets[v] = kept;  // row v + 1 still starts at or after `kept`
    for (auto it = first; it != unique_end; ++it) neighbors[kept++] = *it;
  }
  offsets[n] = kept;
  neighbors.resize(kept);
  neighbors.shrink_to_fit();
  return g;
}

uint32_t AuthorGraph::IndexOf(AuthorId a) const {
  if (vertices_.empty()) return kNoVertex;
  // A lower_bound whose one comparison per step selects the next base
  // (a conditional move) instead of taking a mispredicted branch; every
  // induce looks up each of its members.
  const AuthorId* base = vertices_.data();
  for (size_t n = vertices_.size(); n > 1;) {
    const size_t half = n / 2;
    base = base[half] < a ? base + half : base;
    n -= half;
  }
  base += *base < a ? 1 : 0;
  if (base == vertices_.data() + vertices_.size() || *base != a) {
    return kNoVertex;
  }
  return static_cast<uint32_t>(base - vertices_.data());
}

AuthorGraph::NeighborView AuthorGraph::Neighbors(AuthorId a) const {
  const uint32_t v = IndexOf(a);
  return NeighborView(
      v == kNoVertex ? std::span<const uint32_t>() : csr_.Row(v),
      IdOf{vertices_.data()});
}

bool AuthorGraph::IsNeighbor(AuthorId a, AuthorId b) const {
  return std::ranges::binary_search(Neighbors(a), b);
}

double AuthorGraph::AvgDegree() const {
  if (vertices_.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(vertices_.size());
}

AuthorGraph AuthorGraph::InducedSubgraph(
    const std::vector<AuthorId>& subset) const {
  AuthorGraph g;
  g.vertices_ = SortedUnique(subset);
  SubgraphInducer(*this).Induce(g.vertices_, &g.csr_);
  g.csr_.neighbors.shrink_to_fit();  // the induce sized it for every walk
  return g;
}

std::vector<std::vector<AuthorId>> AuthorGraph::ConnectedComponents() const {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> members;
  csr_.ConnectedComponents(&offsets, &members);
  std::vector<std::vector<AuthorId>> components(offsets.size() - 1);
  for (size_t k = 0; k + 1 < offsets.size(); ++k) {
    for (uint32_t i = offsets[k]; i < offsets[k + 1]; ++i) {
      components[k].push_back(vertices_[members[i]]);
    }
  }
  return components;
}

size_t AuthorGraph::ApproxBytes() const {
  return (vertices_.capacity() + csr_.offsets.capacity() +
          csr_.neighbors.capacity()) *
         sizeof(uint32_t);
}

SubgraphInducer::SubgraphInducer(const AuthorGraph& graph)
    : graph_(graph), local_(graph.num_vertices(), 0) {}

void SubgraphInducer::Induce(std::span<const AuthorId> subset, CsrGraph* out) {
  members_.clear();
  for (size_t i = 0; i < subset.size(); ++i) {
    const uint32_t v = graph_.IndexOf(subset[i]);
    members_.push_back(v);
    if (v != AuthorGraph::kNoVertex) local_[v] = static_cast<uint32_t>(i) + 1;
  }
  // Rows come out ascending: a row of the whole graph is ascending in
  // vertex index, and local indices follow vertex indices. Every slot
  // walked is written and kept only if marked, without a branch: most
  // of a member's neighbors lie outside a small subset.
  const CsrGraph& whole = graph_.csr();
  size_t walked = 0;
  for (uint32_t v : members_) {
    if (v != AuthorGraph::kNoVertex) walked += whole.Row(v).size();
  }
  out->offsets.assign(1, 0);
  out->offsets.reserve(members_.size() + 1);
  out->neighbors.resize(walked);
  uint32_t* kept = out->neighbors.data();
  uint32_t count = 0;
  for (uint32_t v : members_) {
    if (v != AuthorGraph::kNoVertex) {
      for (uint32_t w : whole.Row(v)) {
        kept[count] = local_[w] - 1;
        count += local_[w] != 0 ? 1 : 0;
      }
    }
    out->offsets.push_back(count);
  }
  out->neighbors.resize(count);
  for (uint32_t v : members_) {
    if (v != AuthorGraph::kNoVertex) local_[v] = 0;
  }
}

}  // namespace firehose
