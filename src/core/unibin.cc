#include "src/core/unibin.h"

#include "src/core/coverage_kernel.h"

namespace firehose {

UniBinDiversifier::UniBinDiversifier(const DiversityThresholds& thresholds,
                                     const AuthorGraph* graph)
    : thresholds_(thresholds), graph_(graph) {}

bool UniBinDiversifier::Offer(const Post& post) {
  // The one bin holds every author's posts, so the author dimension is
  // checked against the graph.
  auto author_similar = [&](AuthorId other) {
    return graph_ != nullptr && graph_->IsNeighbor(post.author, other);
  };
  const bool admitted =
      OfferToBins(
          post, post.time_ms - thresholds_.lambda_t_ms, 1, 1,
          [&](size_t) -> PostBin& { return bin_; },
          SimHashScan(post, thresholds_, author_similar), "UniBin.evict",
          &stats_)
          .admitted;
  stats_.UpdatePeak(ApproxBytes());
  return admitted;
}

size_t UniBinDiversifier::ApproxBytes() const {
  return bin_.ApproxBytes();
}

BinOccupancy UniBinDiversifier::bin_occupancy() const {
  return BinOccupancy{1, bin_.size()};
}

void UniBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  bin_.Save(&payload);
  internal::WrapChecksummed(payload, out);
}

bool UniBinDiversifier::LoadState(BinaryReader& in) {
  return internal::LoadChecksummed(
      in, &stats_, [&](BinaryReader& state) { return bin_.Load(state); },
      [&] { bin_ = PostBin{}; });
}

}  // namespace firehose
