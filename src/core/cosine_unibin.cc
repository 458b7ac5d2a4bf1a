#include "src/core/cosine_unibin.h"

#include <algorithm>

#include "src/core/coverage_kernel.h"
#include "src/core/kernels/dispatch.h"
#include "src/text/normalize.h"

namespace firehose {

CosineUniBinDiversifier::CosineUniBinDiversifier(
    const DiversityThresholds& thresholds, double min_cosine_similarity,
    const AuthorGraph* graph)
    : thresholds_(thresholds),
      min_cosine_similarity_(min_cosine_similarity),
      graph_(graph) {}

bool CosineUniBinDiversifier::Offer(const Post& post) {
  TfVector vector = TfVector::FromText(Normalize(post.text));

  // The generic kernel path: the cover lambda addresses the parallel term
  // vectors by the bin's logical from-oldest index, offset past the
  // vectors of entries the ring has just evicted. The sparse dot runs
  // through the dispatched SIMD kernel; it is integer-exact, so every
  // variant produces the same similarity as TfVector::CosineSimilarity.
  const kernels::KernelOps& ops = kernels::ActiveKernelOps();
  auto covers = [&](size_t from_oldest, int64_t /*time_ms*/,
                    uint64_t /*simhash*/, AuthorId author) {
    if (thresholds_.use_content) {
      const TfVector& other =
          vectors_[vectors_.size() - bin_.size() + from_oldest];
      const uint64_t dot =
          ops.sparse_dot(vector.term_hashes(), vector.term_counts(),
                         vector.size(), other.term_hashes(),
                         other.term_counts(), other.size());
      if (vector.SimilarityFromDot(dot, other) < min_cosine_similarity_) {
        return false;
      }
    }
    if (thresholds_.use_author && author != post.author &&
        (graph_ == nullptr || !graph_->IsNeighbor(post.author, author))) {
      return false;
    }
    return true;
  };
  const BinOfferResult offer = OfferToBins(
      post, post.time_ms - thresholds_.lambda_t_ms, 1, 1,
      [&](size_t) -> PostBin& { return bin_; },
      [&](const PostBin& bin, int64_t cutoff) {
        return ScanCovered(bin, cutoff, covers);
      },
      "CosineUniBin.evict", &stats_);
  // Drop the evicted entries' vectors, then add the admitted post's.
  while (vectors_.size() + (offer.admitted ? 1 : 0) > bin_.size()) {
    vectors_bytes_ -= VectorBytes(vectors_.front());
    vectors_.pop_front();
  }
  if (offer.admitted) {
    vectors_bytes_ += VectorBytes(vector);
    vectors_.push_back(std::move(vector));
  }
  stats_.UpdatePeak(ApproxBytes());
  return offer.admitted;
}

size_t CosineUniBinDiversifier::ApproxBytes() const {
  return bin_.ApproxBytes() + vectors_bytes_;
}

void CosineUniBinDiversifier::SaveState(BinaryWriter* out) const {
  BinaryWriter payload;
  internal::SaveStats(stats_, &payload);
  bin_.Save(&payload);
  for (const TfVector& vector : vectors_) vector.Save(&payload);
  internal::WrapChecksummed(payload, out);
}

bool CosineUniBinDiversifier::LoadState(BinaryReader& in) {
  auto load = [&](BinaryReader& state) {
    if (!bin_.Load(state)) return false;
    for (size_t i = 0; i < bin_.size(); ++i) {
      TfVector vector;
      if (!vector.Load(state)) return false;
      vectors_bytes_ += VectorBytes(vector);
      vectors_.push_back(std::move(vector));
    }
    return true;
  };
  return internal::LoadChecksummed(in, &stats_, load, [&] {
    bin_ = PostBin{};
    vectors_.clear();
    vectors_bytes_ = 0;
  });
}

BinOccupancy CosineUniBinDiversifier::bin_occupancy() const {
  return BinOccupancy{1, bin_.size()};
}

}  // namespace firehose
