#include "src/core/neighbor_bin.h"

#include <algorithm>

#include "src/core/coverage_kernel.h"

namespace firehose {

NeighborBinDiversifier::NeighborBinDiversifier(
    const DiversityThresholds& thresholds, const AuthorGraph* graph)
    : thresholds_(thresholds), graph_(graph) {}

bool NeighborBinDiversifier::Offer(const Post& post) {
  // Route: bin(author) is scanned; a non-redundant post goes into it and
  // into each neighbor's bin. Every post in bin(author) is from the
  // author or a similar author, so only content is checked.
  const AuthorGraph::NeighborView neighbors = graph_->Neighbors(post.author);
  auto bin_at = [&](size_t i) -> PostBin& {
    return bins_[i == 0 ? post.author : neighbors[i - 1]];
  };
  const BinOfferResult offer = OfferToBins(
      post, post.time_ms - thresholds_.lambda_t_ms, 1, 1 + neighbors.size(),
      bin_at, SimHashScan(post, thresholds_, [](AuthorId) { return true; }),
      "NeighborBin.evict", &stats_);
  bins_bytes_ += offer.grown_bytes;
  stats_.UpdatePeak(ApproxBytes());
  return offer.admitted;
}

BinOccupancy NeighborBinDiversifier::bin_occupancy() const {
  BinOccupancy occupancy;
  occupancy.num_bins = bins_.size();
  // firehose-lint: allow(unordered-iteration) -- order-independent sum
  for (const auto& [author, bin] : bins_) occupancy.binned_posts += bin.size();
  return occupancy;
}

void NeighborBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  payload.PutVarint(bins_.size());
  // Serialize in sorted key order: hash-map iteration order would make the
  // snapshot bytes differ from run to run for identical state.
  std::vector<AuthorId> keys;
  keys.reserve(bins_.size());
  // firehose-lint: allow(unordered-iteration) -- keys are sorted below
  for (const auto& [author, bin] : bins_) keys.push_back(author);
  std::sort(keys.begin(), keys.end());
  for (AuthorId author : keys) {
    payload.PutVarint(author);
    bins_.at(author).Save(&payload);
  }
  internal::WrapChecksummed(payload, out);
}

bool NeighborBinDiversifier::LoadState(BinaryReader& in) {
  auto load = [&](BinaryReader& state) {
    uint64_t count;
    if (!state.GetVarint(&count)) return false;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t author;
      if (!state.GetVarint(&author) || author > 0xFFFFFFFFull) return false;
      PostBin& bin = bins_[static_cast<AuthorId>(author)];
      if (!bin.Load(state)) return false;
      bins_bytes_ += bin.ApproxBytes();
    }
    return true;
  };
  return internal::LoadChecksummed(in, &stats_, load, [&] {
    bins_.clear();
    bins_bytes_ = 0;
  });
}

size_t NeighborBinDiversifier::ApproxBytes() const {
  // Ring capacities plus hash-map node overhead per bin.
  return bins_bytes_ + bins_.size() * (sizeof(PostBin) + sizeof(AuthorId) +
                                       2 * sizeof(void*));
}

}  // namespace firehose
