#include "src/core/lagged.h"

#include <algorithm>

#include "src/util/bitops.h"

namespace firehose {

LaggedDiversifier::LaggedDiversifier(const DiversityThresholds& thresholds,
                                     int64_t lag_ms, const AuthorGraph* graph)
    : thresholds_(thresholds), lag_ms_(lag_ms), graph_(graph) {}

bool LaggedDiversifier::Covers(const Post& a, const Post& b) const {
  if (std::abs(a.time_ms - b.time_ms) > thresholds_.lambda_t_ms) return false;
  if (thresholds_.use_content &&
      HammingDistance64(a.simhash, b.simhash) > thresholds_.lambda_c) {
    return false;
  }
  if (thresholds_.use_author && a.author != b.author &&
      (graph_ == nullptr || !graph_->IsNeighbor(a.author, b.author))) {
    return false;
  }
  return true;
}

void LaggedDiversifier::DecideUntil(int64_t now, std::vector<Post>* emitted) {
  while (!pending_.empty() && pending_.front().post.time_ms + lag_ms_ <= now) {
    Pending decision = pending_.front();
    pending_.pop_front();
    const Post& post = decision.post;

    // Emitted posts older than any possible coverage are dropped lazily.
    while (!emitted_window_.empty() &&
           post.time_ms - emitted_window_.front().time_ms >
               thresholds_.lambda_t_ms) {
      emitted_window_.pop_front();
    }

    bool covered = false;
    if (!decision.pinned) {
      // (1) covered by an already-emitted post?
      for (auto it = emitted_window_.rbegin(); it != emitted_window_.rend();
           ++it) {
        ++stats_.comparisons;
        if (Covers(post, *it)) {
          covered = true;
          break;
        }
      }
      // (2) covered by a pending later arrival? Pin the best one.
      if (!covered && !pending_.empty()) {
        size_t best_index = pending_.size();
        int best_gain = -1;
        for (size_t i = 0; i < pending_.size(); ++i) {
          ++stats_.comparisons;
          if (!Covers(post, pending_[i].post)) continue;
          // Candidate pinner: count how many other pending posts it
          // covers (set-cover greedy).
          int gain = 0;
          for (size_t j = 0; j < pending_.size(); ++j) {
            if (j != i && Covers(pending_[i].post, pending_[j].post)) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best_index = i;
          }
        }
        if (best_index < pending_.size()) {
          pending_[best_index].pinned = true;
          covered = true;
        }
      }
    }

    if (covered) continue;
    emitted_window_.push_back(post);
    ++stats_.insertions;
    ++stats_.posts_out;
    emitted->push_back(post);
  }
}

void LaggedDiversifier::Offer(const Post& post, std::vector<Post>* emitted) {
  ++stats_.posts_in;
  DecideUntil(post.time_ms, emitted);
  pending_.push_back(Pending{post, false});
}

void LaggedDiversifier::Finish(std::vector<Post>* emitted) {
  if (pending_.empty()) return;
  DecideUntil(pending_.back().post.time_ms + lag_ms_ + 1, emitted);
}

}  // namespace firehose
