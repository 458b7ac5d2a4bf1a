#include "src/author/dynamic_cover.h"

#include <algorithm>
#include <utility>

namespace firehose {

const std::vector<DynamicCoverMaintainer::SlotId>
    DynamicCoverMaintainer::kNoCliques;

DynamicCoverMaintainer::DynamicCoverMaintainer(const AuthorGraph& graph) {
  authors_.reserve(graph.num_vertices());
  for (AuthorId a : graph.vertices()) {
    const AuthorGraph::NeighborView neighbors = graph.Neighbors(a);
    authors_[a].neighbors.assign(neighbors.begin(), neighbors.end());
  }
  const CliqueCover initial = CliqueCover::Greedy(graph);
  for (const auto& clique : initial.cliques()) {
    NewClique(clique);
  }
  cliques_created_ = 0;  // the initial build doesn't count as repair work
}

AuthorGraph DynamicCoverMaintainer::graph() const {
  std::vector<AuthorId> vertices;
  std::vector<std::pair<AuthorId, AuthorId>> edges;
  vertices.reserve(authors_.size());
  // firehose-lint: allow(unordered-iteration) -- FromEdges sorts both lists
  for (const auto& [a, author] : authors_) {
    vertices.push_back(a);
    for (AuthorId b : author.neighbors) {
      if (a < b) edges.emplace_back(a, b);
    }
  }
  return AuthorGraph::FromEdges(std::move(vertices), edges);
}

bool DynamicCoverMaintainer::IsNeighbor(AuthorId a, AuthorId b) const {
  const auto it = authors_.find(a);
  return it != authors_.end() &&
         std::binary_search(it->second.neighbors.begin(),
                            it->second.neighbors.end(), b);
}

const std::vector<DynamicCoverMaintainer::SlotId>&
DynamicCoverMaintainer::CliquesOf(AuthorId a) const {
  auto it = authors_.find(a);
  return it == authors_.end() ? kNoCliques : it->second.cliques;
}

bool DynamicCoverMaintainer::SharesClique(AuthorId a, AuthorId b) const {
  const auto& cliques_a = CliquesOf(a);
  const auto& cliques_b = CliquesOf(b);
  for (SlotId slot : cliques_a) {
    for (SlotId other : cliques_b) {
      if (slot == other) return true;
    }
  }
  return false;
}

void DynamicCoverMaintainer::AddCliqueMember(SlotId slot, AuthorId member) {
  auto& clique = cliques_[slot];
  clique.insert(std::lower_bound(clique.begin(), clique.end(), member),
                member);
  authors_[member].cliques.push_back(slot);
}

DynamicCoverMaintainer::SlotId DynamicCoverMaintainer::NewClique(
    std::vector<AuthorId> members) {
  std::sort(members.begin(), members.end());
  SlotId slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    cliques_[slot] = std::move(members);
  } else {
    slot = static_cast<SlotId>(cliques_.size());
    cliques_.push_back(std::move(members));
  }
  for (AuthorId member : cliques_[slot]) {
    authors_[member].cliques.push_back(slot);
  }
  ++live_cliques_;
  ++cliques_created_;
  return slot;
}

void DynamicCoverMaintainer::DissolveClique(SlotId slot) {
  for (AuthorId member : cliques_[slot]) {
    auto& list = authors_[member].cliques;
    list.erase(std::remove(list.begin(), list.end(), slot), list.end());
  }
  cliques_[slot].clear();
  free_slots_.push_back(slot);
  --live_cliques_;
  ++cliques_dissolved_;
}

void DynamicCoverMaintainer::EnsureSingleton(AuthorId a) {
  if (HasVertex(a) && CliquesOf(a).empty()) {
    NewClique({a});
  }
}

void DynamicCoverMaintainer::CoverEdge(AuthorId a, AuthorId b) {
  // Grow greedily from {a, b}, preferring candidates adding the most
  // not-yet-co-clique'd pairs (the Greedy() rule, with "covered" meaning
  // "shares a live clique").
  std::vector<AuthorId> clique = {a, b};
  std::vector<AuthorId> candidates;
  const std::vector<AuthorId>& neighbors_a = NeighborsOf(a);
  const std::vector<AuthorId>& neighbors_b = NeighborsOf(b);
  std::set_intersection(neighbors_a.begin(), neighbors_a.end(),
                        neighbors_b.begin(), neighbors_b.end(),
                        std::back_inserter(candidates));
  while (!candidates.empty()) {
    AuthorId best = candidates.front();
    int best_gain = -1;
    for (AuthorId cand : candidates) {
      int gain = 0;
      for (AuthorId member : clique) {
        if (!SharesClique(cand, member)) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = cand;
      }
    }
    clique.push_back(best);
    std::vector<AuthorId> next;
    const std::vector<AuthorId>& neighbors_best = NeighborsOf(best);
    std::set_intersection(candidates.begin(), candidates.end(),
                          neighbors_best.begin(), neighbors_best.end(),
                          std::back_inserter(next));
    next.erase(std::remove(next.begin(), next.end(), best), next.end());
    candidates = std::move(next);
  }
  NewClique(std::move(clique));
}

void DynamicCoverMaintainer::AddAuthor(AuthorId a) {
  if (authors_.try_emplace(a).second) EnsureSingleton(a);
}

bool DynamicCoverMaintainer::RemoveAuthor(AuthorId a) {
  if (!HasVertex(a)) return false;
  // Dropping incident edges via RemoveEdge keeps the cover repaired; the
  // copy is needed because RemoveEdge mutates adjacency.
  const std::vector<AuthorId> neighbors = NeighborsOf(a);
  for (AuthorId b : neighbors) RemoveEdge(a, b);
  // Dissolve the remaining singleton(s) of a.
  std::vector<SlotId> remaining = CliquesOf(a);
  for (SlotId slot : remaining) DissolveClique(slot);
  authors_.erase(a);
  return true;
}

bool DynamicCoverMaintainer::AddEdge(AuthorId a, AuthorId b) {
  if (a == b || !HasVertex(a) || !HasVertex(b) || IsNeighbor(a, b)) {
    return false;
  }
  for (auto [from, to] : {std::pair<AuthorId, AuthorId>{a, b},
                          std::pair<AuthorId, AuthorId>{b, a}}) {
    std::vector<AuthorId>& row = authors_[from].neighbors;
    row.insert(std::lower_bound(row.begin(), row.end(), to), to);
  }
  // Try to absorb the edge into an existing clique of either endpoint.
  for (auto [from, to] : {std::pair<AuthorId, AuthorId>{a, b},
                          std::pair<AuthorId, AuthorId>{b, a}}) {
    for (SlotId slot : CliquesOf(from)) {
      const auto& clique = cliques_[slot];
      if (clique.size() == 1) continue;  // absorbing into a singleton is
                                         // just renaming a new 2-clique
      bool all_adjacent = true;
      for (AuthorId member : clique) {
        if (member != from && member != to &&
            !IsNeighbor(member, to)) {
          all_adjacent = false;
          break;
        }
      }
      if (all_adjacent) {
        AddCliqueMember(slot, to);
        return true;
      }
    }
  }
  CoverEdge(a, b);
  return true;
}

bool DynamicCoverMaintainer::RemoveEdge(AuthorId a, AuthorId b) {
  if (!IsNeighbor(a, b)) return false;
  for (auto [from, to] : {std::pair<AuthorId, AuthorId>{a, b},
                          std::pair<AuthorId, AuthorId>{b, a}}) {
    std::vector<AuthorId>& row = authors_[from].neighbors;
    row.erase(std::lower_bound(row.begin(), row.end(), to));
  }
  // Dissolve every clique containing both endpoints, then re-cover its
  // surviving edges that lost their last clique.
  std::vector<SlotId> shared;
  for (SlotId slot : CliquesOf(a)) {
    const auto& clique = cliques_[slot];
    if (std::binary_search(clique.begin(), clique.end(), b)) {
      shared.push_back(slot);
    }
  }
  std::vector<std::vector<AuthorId>> dissolved;
  for (SlotId slot : shared) {
    dissolved.push_back(cliques_[slot]);
    DissolveClique(slot);
  }
  for (const auto& members : dissolved) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const AuthorId u = members[i];
        const AuthorId v = members[j];
        if (!IsNeighbor(u, v)) continue;  // the removed edge itself
        if (!SharesClique(u, v)) CoverEdge(u, v);
      }
    }
  }
  EnsureSingleton(a);
  EnsureSingleton(b);
  return true;
}

CliqueCover DynamicCoverMaintainer::Snapshot() const {
  std::vector<std::vector<AuthorId>> live;
  live.reserve(live_cliques_);
  for (const auto& clique : cliques_) {
    if (!clique.empty()) live.push_back(clique);
  }
  return CliqueCover::FromCliques(std::move(live), authors_.size());
}

}  // namespace firehose
