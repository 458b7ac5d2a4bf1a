#include "src/core/clique_bin.h"

#include "src/core/coverage_kernel.h"

namespace firehose {

CliqueBinDiversifier::CliqueBinDiversifier(
    const DiversityThresholds& thresholds, const CliqueCover* cover)
    : thresholds_(thresholds),
      cover_(cover),
      slot_of_(cover->num_cliques(), kNoSlot) {}

PostBin& CliqueBinDiversifier::BinOf(CliqueId clique) {
  uint32_t& slot = slot_of_[clique];
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(bins_.size());
    bins_.emplace_back();
  }
  return bins_[slot];
}

bool CliqueBinDiversifier::Offer(const Post& post) {
  // Route: the bins of the author's cliques, scanned and inserted into.
  // Clique members are pairwise neighbors, so only content is checked.
  const std::span<const CliqueId> cliques = cover_->CliquesOf(post.author);
  const BinOfferResult offer = OfferToBins(
      post, post.time_ms - thresholds_.lambda_t_ms, cliques.size(),
      cliques.size(), [&](size_t i) -> PostBin& { return BinOf(cliques[i]); },
      SimHashScan(post, thresholds_, [](AuthorId) { return true; }),
      "CliqueBin.evict", &stats_);
  bins_bytes_ += offer.grown_bytes;
  stats_.UpdatePeak(ApproxBytes());
  return offer.admitted;
}

BinOccupancy CliqueBinDiversifier::bin_occupancy() const {
  BinOccupancy occupancy;
  occupancy.num_bins = bins_.size();
  for (const PostBin& bin : bins_) occupancy.binned_posts += bin.size();
  return occupancy;
}

void CliqueBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  payload.PutVarint(bins_.size());
  // Bins go out in ascending clique id, not in slot (first-touch) order,
  // so identical state always gives identical bytes.
  for (CliqueId clique = 0; clique < slot_of_.size(); ++clique) {
    if (slot_of_[clique] == kNoSlot) continue;
    payload.PutVarint(clique);
    bins_[slot_of_[clique]].Save(&payload);
  }
  internal::WrapChecksummed(payload, out);
}

bool CliqueBinDiversifier::LoadState(BinaryReader& in) {
  auto load = [&](BinaryReader& state) {
    uint64_t count;
    if (!state.GetVarint(&count)) return false;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t clique;
      // An id outside the cover, or one seen before, is a corrupt snapshot.
      if (!state.GetVarint(&clique) || clique >= slot_of_.size() ||
          slot_of_[clique] != kNoSlot) {
        return false;
      }
      PostBin& bin = BinOf(static_cast<CliqueId>(clique));
      if (!bin.Load(state)) return false;
      bins_bytes_ += bin.ApproxBytes();
    }
    return true;
  };
  return internal::LoadChecksummed(in, &stats_, load, [&] {
    slot_of_.assign(slot_of_.size(), kNoSlot);
    bins_ = std::vector<PostBin>();  // release capacity: ApproxBytes counts it
    bins_bytes_ = 0;
  });
}

size_t CliqueBinDiversifier::ApproxBytes() const {
  return bins_bytes_ + bins_.capacity() * sizeof(PostBin) +
         slot_of_.capacity() * sizeof(uint32_t);
}

}  // namespace firehose
