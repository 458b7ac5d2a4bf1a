#include "src/author/similarity_graph.h"

#include <algorithm>

namespace firehose {

const std::vector<AuthorId> AuthorGraph::kEmpty;

namespace {

std::vector<AuthorId> SortedUnique(std::vector<AuthorId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

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
  g.adjacency_.assign(g.vertices_.size(), {});
  for (const auto& [a, b] : edges) {
    if (a == b) continue;
    const int ia = g.IndexOf(a);
    const int ib = g.IndexOf(b);
    if (ia < 0 || ib < 0) continue;
    g.adjacency_[static_cast<size_t>(ia)].push_back(b);
    g.adjacency_[static_cast<size_t>(ib)].push_back(a);
  }
  g.num_edges_ = 0;
  for (auto& adj : g.adjacency_) {
    adj = SortedUnique(std::move(adj));
    g.num_edges_ += adj.size();
  }
  g.num_edges_ /= 2;
  return g;
}

int AuthorGraph::IndexOf(AuthorId a) const {
  auto it = std::lower_bound(vertices_.begin(), vertices_.end(), a);
  if (it == vertices_.end() || *it != a) return -1;
  return static_cast<int>(it - vertices_.begin());
}

bool AuthorGraph::HasVertex(AuthorId a) const { return IndexOf(a) >= 0; }

const std::vector<AuthorId>& AuthorGraph::Neighbors(AuthorId a) const {
  const int i = IndexOf(a);
  if (i < 0) return kEmpty;
  return adjacency_[static_cast<size_t>(i)];
}

bool AuthorGraph::IsNeighbor(AuthorId a, AuthorId b) const {
  const std::vector<AuthorId>& adj = Neighbors(a);
  return std::binary_search(adj.begin(), adj.end(), b);
}

double AuthorGraph::AvgDegree() const {
  if (vertices_.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(vertices_.size());
}

AuthorGraph AuthorGraph::InducedSubgraph(
    const std::vector<AuthorId>& subset) const {
  AuthorGraph g;
  g.vertices_ = SortedUnique(subset);
  g.adjacency_.assign(g.vertices_.size(), {});
  g.num_edges_ = 0;
  for (size_t i = 0; i < g.vertices_.size(); ++i) {
    const AuthorId a = g.vertices_[i];
    for (AuthorId b : Neighbors(a)) {
      if (std::binary_search(g.vertices_.begin(), g.vertices_.end(), b)) {
        g.adjacency_[i].push_back(b);  // already sorted: Neighbors is sorted
      }
    }
    g.num_edges_ += g.adjacency_[i].size();
  }
  g.num_edges_ /= 2;
  return g;
}

std::vector<std::vector<AuthorId>> AuthorGraph::ConnectedComponents() const {
  std::vector<std::vector<AuthorId>> components;
  std::vector<bool> seen(vertices_.size(), false);
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (seen[i]) continue;
    std::vector<AuthorId> component;
    std::vector<size_t> stack = {i};
    seen[i] = true;
    while (!stack.empty()) {
      const size_t v = stack.back();
      stack.pop_back();
      component.push_back(vertices_[v]);
      for (AuthorId nbr : adjacency_[v]) {
        const int ni = IndexOf(nbr);
        if (ni >= 0 && !seen[static_cast<size_t>(ni)]) {
          seen[static_cast<size_t>(ni)] = true;
          stack.push_back(static_cast<size_t>(ni));
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

void AuthorGraph::AddVertex(AuthorId a) {
  auto it = std::lower_bound(vertices_.begin(), vertices_.end(), a);
  if (it != vertices_.end() && *it == a) return;
  const size_t index = static_cast<size_t>(it - vertices_.begin());
  vertices_.insert(it, a);
  // NB: insert(pos, {}) would pick the initializer_list overload and
  // insert zero elements; emplace inserts one empty adjacency list.
  adjacency_.emplace(adjacency_.begin() + static_cast<long>(index));
}

bool AuthorGraph::AddEdge(AuthorId a, AuthorId b) {
  if (a == b) return false;
  const int ia = IndexOf(a);
  const int ib = IndexOf(b);
  if (ia < 0 || ib < 0) return false;
  auto& adj_a = adjacency_[static_cast<size_t>(ia)];
  auto it = std::lower_bound(adj_a.begin(), adj_a.end(), b);
  if (it != adj_a.end() && *it == b) return false;
  adj_a.insert(it, b);
  auto& adj_b = adjacency_[static_cast<size_t>(ib)];
  adj_b.insert(std::lower_bound(adj_b.begin(), adj_b.end(), a), a);
  ++num_edges_;
  return true;
}

bool AuthorGraph::RemoveEdge(AuthorId a, AuthorId b) {
  const int ia = IndexOf(a);
  const int ib = IndexOf(b);
  if (ia < 0 || ib < 0) return false;
  auto& adj_a = adjacency_[static_cast<size_t>(ia)];
  auto it = std::lower_bound(adj_a.begin(), adj_a.end(), b);
  if (it == adj_a.end() || *it != b) return false;
  adj_a.erase(it);
  auto& adj_b = adjacency_[static_cast<size_t>(ib)];
  adj_b.erase(std::lower_bound(adj_b.begin(), adj_b.end(), a));
  --num_edges_;
  return true;
}

bool AuthorGraph::RemoveVertex(AuthorId a) {
  const int ia = IndexOf(a);
  if (ia < 0) return false;
  // Detach from every neighbor first.
  const std::vector<AuthorId> neighbors = adjacency_[static_cast<size_t>(ia)];
  for (AuthorId b : neighbors) {
    auto& adj_b = adjacency_[static_cast<size_t>(IndexOf(b))];
    adj_b.erase(std::lower_bound(adj_b.begin(), adj_b.end(), a));
    --num_edges_;
  }
  vertices_.erase(vertices_.begin() + ia);
  adjacency_.erase(adjacency_.begin() + ia);
  return true;
}

IndexedGraph::IndexedGraph(const AuthorGraph& graph)
    : vertices_(graph.vertices()) {
  csr_.offsets.reserve(vertices_.size() + 1);
  csr_.neighbors.reserve(static_cast<size_t>(graph.num_edges()) * 2);
  for (AuthorId a : vertices_) {
    for (AuthorId b : graph.Neighbors(a)) csr_.neighbors.push_back(IndexOf(b));
    csr_.offsets.push_back(static_cast<uint32_t>(csr_.neighbors.size()));
  }
}

uint32_t IndexedGraph::IndexOf(AuthorId a) const {
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

SubgraphInducer::SubgraphInducer(const IndexedGraph& graph)
    : graph_(graph), local_(graph.vertices().size(), 0) {}

void SubgraphInducer::Induce(std::span<const AuthorId> subset, CsrGraph* out) {
  members_.clear();
  for (size_t i = 0; i < subset.size(); ++i) {
    const uint32_t v = graph_.IndexOf(subset[i]);
    members_.push_back(v);
    if (v != IndexedGraph::kNoVertex) local_[v] = static_cast<uint32_t>(i) + 1;
  }
  // Rows come out ascending: a row of the whole graph is ascending in
  // vertex index, and local indices follow vertex indices. Every slot
  // walked is written and kept only if marked, without a branch: most
  // of a member's neighbors lie outside a small subset.
  const CsrGraph& whole = graph_.csr();
  size_t walked = 0;
  for (uint32_t v : members_) {
    if (v != IndexedGraph::kNoVertex) walked += whole.Row(v).size();
  }
  out->offsets.assign(1, 0);
  out->neighbors.resize(walked);
  uint32_t* kept = out->neighbors.data();
  uint32_t count = 0;
  for (uint32_t v : members_) {
    if (v != IndexedGraph::kNoVertex) {
      for (uint32_t w : whole.Row(v)) {
        kept[count] = local_[w] - 1;
        count += local_[w] != 0 ? 1 : 0;
      }
    }
    out->offsets.push_back(count);
  }
  out->neighbors.resize(count);
  for (uint32_t v : members_) {
    if (v != IndexedGraph::kNoVertex) local_[v] = 0;
  }
}

size_t AuthorGraph::ApproxBytes() const {
  size_t bytes = vertices_.capacity() * sizeof(AuthorId);
  for (const auto& adj : adjacency_) {
    bytes += adj.capacity() * sizeof(AuthorId) + sizeof(adj);
  }
  return bytes;
}

}  // namespace firehose
