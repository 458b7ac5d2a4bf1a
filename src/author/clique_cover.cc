#include "src/author/clique_cover.h"

#include <algorithm>
#include <cstddef>
#include <unordered_set>

namespace firehose {

namespace {

uint64_t EdgeKey(AuthorId a, AuthorId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

void CliqueCover::GreedyCliques(const CsrGraph& graph, LocalCliques* out) {
  out->offsets.assign(1, 0);
  out->members.clear();
  const uint32_t n = graph.num_vertices();
  const std::vector<uint32_t>& adj = graph.neighbors;
  // covered[s]: the edge in adjacency slot s lies in a saved clique. Both
  // slots of an edge are set together.
  std::vector<uint8_t> covered(adj.size(), 0);
  // A candidate is adjacent to every member so far; its gain counts the
  // members it shares no saved clique with. Coverage is frozen while a
  // clique grows, so a gain only ever rises, by one member at a time.
  struct Candidate {
    uint32_t v;
    uint32_t gain;
  };
  std::vector<Candidate> candidates;

  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t su = graph.offsets[u]; su < graph.offsets[u + 1]; ++su) {
      const uint32_t v = adj[su];
      if (v < u || covered[su] != 0) continue;  // each edge from below

      // Seed with the uncovered edge {u, v}; the candidates are
      // N(u) ∩ N(v), by one merge of the two rows.
      const size_t begin = out->members.size();
      out->members.push_back(u);
      out->members.push_back(v);
      candidates.clear();
      for (uint32_t i = graph.offsets[u], ie = graph.offsets[u + 1],
                    j = graph.offsets[v], je = graph.offsets[v + 1];
           i < ie && j < je;) {
        if (adj[i] < adj[j]) {
          ++i;
        } else if (adj[j] < adj[i]) {
          ++j;
        } else {
          candidates.push_back(
              {adj[i], uint32_t{covered[i] == 0} + uint32_t{covered[j] == 0}});
          ++i;
          ++j;
        }
      }
      while (!candidates.empty()) {
        size_t pick = 0;
        for (size_t k = 1; k < candidates.size(); ++k) {
          if (candidates[k].gain > candidates[pick].gain) pick = k;
        }
        const uint32_t best = candidates[pick].v;
        out->members.push_back(best);
        // Keep the candidates adjacent to `best` (it is not adjacent to
        // itself, so it drops out), adding best's share of each gain.
        size_t kept = 0;
        for (uint32_t k = 0, j = graph.offsets[best],
                      je = graph.offsets[best + 1];
             k < candidates.size() && j < je;) {
          if (candidates[k].v < adj[j]) {
            ++k;
          } else if (adj[j] < candidates[k].v) {
            ++j;
          } else {
            candidates[kept++] = {candidates[k].v,
                                  candidates[k].gain +
                                      uint32_t{covered[j] == 0}};
            ++k;
            ++j;
          }
        }
        candidates.resize(kept);
      }

      // Save the clique and cover its edges: one sorted merge of each
      // member's row with the clique.
      const auto first =
          out->members.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, out->members.end());
      const auto last = out->members.end();
      for (auto m = first; m != last; ++m) {
        auto c = first;
        for (uint32_t j = graph.offsets[*m], je = graph.offsets[*m + 1];
             c != last && j < je;) {
          if (*c < adj[j]) {
            ++c;
          } else if (adj[j] < *c) {
            ++j;
          } else {
            covered[j] = 1;
            ++c;
            ++j;
          }
        }
      }
      out->offsets.push_back(static_cast<uint32_t>(out->members.size()));
    }
  }

  // Singleton cliques for vertices covered by no clique (exactly the
  // isolated ones: every edge is covered), so same-author posts of
  // isolated authors can still cover each other.
  for (uint32_t u = 0; u < n; ++u) {
    if (graph.offsets[u] == graph.offsets[u + 1]) {
      out->members.push_back(u);
      out->offsets.push_back(static_cast<uint32_t>(out->members.size()));
    }
  }
}

CliqueCover CliqueCover::Greedy(const AuthorGraph& graph) {
  LocalCliques local;
  GreedyCliques(graph.csr(), &local);
  CliqueCover cover;
  cover.num_authors_ = graph.num_vertices();
  cover.cliques_.resize(local.size());
  const std::vector<AuthorId>& ids = graph.vertices();
  for (size_t k = 0; k < local.size(); ++k) {
    std::vector<AuthorId>& clique = cover.cliques_[k];
    clique.resize(local.offsets[k + 1] - local.offsets[k]);
    for (size_t i = 0; i < clique.size(); ++i) {
      clique[i] = ids[local.members[local.offsets[k] + i]];
    }
  }
  cover.IndexAuthors(graph.vertices());
  return cover;
}

CliqueCover CliqueCover::FromCliques(
    std::vector<std::vector<AuthorId>> cliques, size_t num_authors) {
  CliqueCover cover;
  cover.num_authors_ = num_authors;
  cover.cliques_ = std::move(cliques);
  std::vector<AuthorId> authors;
  for (std::vector<AuthorId>& clique : cover.cliques_) {
    std::sort(clique.begin(), clique.end());
    authors.insert(authors.end(), clique.begin(), clique.end());
  }
  std::sort(authors.begin(), authors.end());
  authors.erase(std::unique(authors.begin(), authors.end()), authors.end());
  cover.IndexAuthors(std::move(authors));
  return cover;
}

void CliqueCover::IndexAuthors(std::vector<AuthorId> authors) {
  authors_ = std::move(authors);
  auto index_of = [this](AuthorId a) {
    return static_cast<size_t>(
        std::lower_bound(authors_.begin(), authors_.end(), a) -
        authors_.begin());
  };
  // Counting sort by author; visiting cliques in id order keeps each
  // author's list ascending.
  offsets_.assign(authors_.size() + 1, 0);
  for (const auto& clique : cliques_) {
    for (AuthorId member : clique) ++offsets_[index_of(member) + 1];
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  clique_ids_.resize(offsets_.back());
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t id = 0; id < cliques_.size(); ++id) {
    for (AuthorId member : cliques_[id]) {
      clique_ids_[next[index_of(member)]++] = static_cast<CliqueId>(id);
    }
  }
}

bool CliqueCover::IsValidFor(const AuthorGraph& graph) const {
  std::unordered_set<uint64_t> covered;
  for (const auto& clique : cliques_) {
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        if (!graph.IsNeighbor(clique[i], clique[j])) return false;
        covered.insert(EdgeKey(clique[i], clique[j]));
      }
    }
  }
  for (AuthorId u : graph.vertices()) {
    if (CliquesOf(u).empty()) return false;
    for (AuthorId v : graph.Neighbors(u)) {
      if (u < v && covered.count(EdgeKey(u, v)) == 0) return false;
    }
  }
  return true;
}

std::span<const CliqueId> CliqueCover::CliquesOf(AuthorId author) const {
  const auto it = std::lower_bound(authors_.begin(), authors_.end(), author);
  if (it == authors_.end() || *it != author) return {};
  const size_t i = static_cast<size_t>(it - authors_.begin());
  return std::span<const CliqueId>(clique_ids_)
      .subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
}

double CliqueCover::AvgCliquesPerAuthor() const {
  if (num_authors_ == 0) return 0.0;
  return static_cast<double>(clique_ids_.size()) /
         static_cast<double>(num_authors_);
}

double CliqueCover::AvgCliqueSize() const {
  if (cliques_.empty()) return 0.0;
  return static_cast<double>(TotalCliqueSize()) /
         static_cast<double>(cliques_.size());
}

uint64_t CliqueCover::TotalCliqueSize() const {
  uint64_t total = 0;
  for (const auto& clique : cliques_) total += clique.size();
  return total;
}

size_t CliqueCover::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& clique : cliques_) {
    bytes += clique.capacity() * sizeof(AuthorId) + sizeof(clique);
  }
  bytes += authors_.capacity() * sizeof(AuthorId) +
           offsets_.capacity() * sizeof(uint32_t) +
           clique_ids_.capacity() * sizeof(CliqueId);
  return bytes;
}

}  // namespace firehose
