#include "src/core/clique_bin.h"

#include "src/core/coverage_kernel.h"
#include "src/obs/trace.h"

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
  ++stats_.posts_in;
  const int64_t cutoff = post.time_ms - thresholds_.lambda_t_ms;
  const std::span<const CliqueId> cliques = cover_->CliquesOf(post.author);

  // Posts sharing a clique with the author are by construction similar to
  // it (clique members are pairwise neighbors), so only content is checked.
  auto author_similar = [](AuthorId) { return true; };
  bool covered = false;
  size_t evicted = 0;
  for (CliqueId clique : cliques) {
    PostBin& bin = BinOf(clique);
    evicted += bin.EvictOlderThan(cutoff);
    const CoverageScanResult scan =
        ScanCoveredSimHash(bin, cutoff, post.simhash, post.author,
                           thresholds_, author_similar);
    stats_.comparisons += scan.comparisons;
    stats_.pruned += scan.pruned;
    if (scan.covered) {
      covered = true;
      break;
    }
  }
  if (evicted > 0) {
    stats_.evictions += evicted;
    obs::GlobalTraceInstant("CliqueBin.evict", "bin");
  }
  if (covered) {
    stats_.UpdatePeak(ApproxBytes());
    return false;
  }

  const BinEntry entry{post.time_ms, post.simhash, post.author, post.id};
  // The scan touched every clique, so each bin has its slot already.
  for (CliqueId clique : cliques) {
    PostBin& bin = bins_[slot_of_[clique]];
    const size_t before = bin.ApproxBytes();
    bin.Push(entry);
    bins_bytes_ += bin.ApproxBytes() - before;
    ++stats_.insertions;
  }
  ++stats_.posts_out;
  stats_.UpdatePeak(ApproxBytes());
  return true;
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

void CliqueBinDiversifier::Clear() {
  slot_of_.assign(slot_of_.size(), kNoSlot);
  bins_ = std::vector<PostBin>();  // release capacity: ApproxBytes counts it
  bins_bytes_ = 0;
}

bool CliqueBinDiversifier::LoadState(BinaryReader& in) {
  Clear();
  std::string payload;
  if (internal::UnwrapChecksummed(in, &payload)) {
    BinaryReader state(payload);
    if (LoadStatePayload(state)) return true;
  }
  // Malformed snapshot: reset to empty so the object stays usable.
  stats_ = IngestStats{};
  Clear();
  return false;
}

bool CliqueBinDiversifier::LoadStatePayload(BinaryReader& in) {
  if (!internal::LoadStats(in, &stats_)) return false;
  uint64_t count;
  if (!in.GetVarint(&count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t clique;
    // An id outside the cover, or one seen before, is a corrupt snapshot.
    if (!in.GetVarint(&clique) || clique >= slot_of_.size() ||
        slot_of_[clique] != kNoSlot) {
      return false;
    }
    PostBin& bin = BinOf(static_cast<CliqueId>(clique));
    if (!bin.Load(in)) return false;
    bins_bytes_ += bin.ApproxBytes();
  }
  return in.AtEnd();
}

size_t CliqueBinDiversifier::ApproxBytes() const {
  return bins_bytes_ + bins_.capacity() * sizeof(PostBin) +
         slot_of_.capacity() * sizeof(uint32_t);
}

}  // namespace firehose
