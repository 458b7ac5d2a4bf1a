#include "src/stream/post_bin.h"

#include <algorithm>

namespace firehose {

void PostBin::Allocate(size_t capacity) {
  buffer_ = std::make_unique_for_overwrite<std::byte[]>(capacity *
                                                        kBinEntryLaneBytes);
  capacity_ = capacity;
}

void PostBin::Grow(size_t min_capacity) {
  size_t new_capacity = capacity_ == 0 ? 2 : capacity_ * 2;
  while (new_capacity < min_capacity) new_capacity *= 2;
  PostBin next;
  next.Allocate(new_capacity);
  // Copy each lane's one or two live stretches to the front of the new lane.
  LaneSpan segments[2];
  const size_t num_segments = Segments(segments);
  size_t at = 0;
  for (size_t s = 0; s < num_segments; ++s) {
    const LaneSpan& seg = segments[s];
    std::copy_n(seg.time_ms, seg.size, next.time_lane() + at);
    std::copy_n(seg.simhash, seg.size, next.hash_lane() + at);
    std::copy_n(seg.author, seg.size, next.author_lane() + at);
    std::copy_n(seg.post_id, seg.size, next.id_lane() + at);
    at += seg.size;
  }
  buffer_ = std::move(next.buffer_);
  capacity_ = new_capacity;
  head_ = 0;
}

void PostBin::Push(const BinEntry& entry) {
  if (size_ == capacity_) Grow(size_ + 1);
  const size_t slot = (head_ + size_) & mask();
  time_lane()[slot] = entry.time_ms;
  hash_lane()[slot] = entry.simhash;
  author_lane()[slot] = entry.author;
  id_lane()[slot] = entry.post_id;
  ++size_;
}

size_t PostBin::Segments(LaneSpan out[2]) const {
  if (size_ == 0) return 0;
  const size_t first = std::min(size_, capacity_ - head_);
  out[0] = LaneSpan{time_lane() + head_, hash_lane() + head_,
                    author_lane() + head_, id_lane() + head_, first};
  if (first == size_) return 1;
  out[1] = LaneSpan{time_lane(), hash_lane(), author_lane(), id_lane(),
                    size_ - first};
  return 2;
}

size_t PostBin::CountOlderThan(int64_t cutoff_ms) const {
  // Fast paths cover the two common states — fully inside the window
  // (steady stream, freshly evicted bin) and fully expired — before the
  // binary search pays its log.
  if (size_ == 0) return 0;
  const int64_t* time = time_lane();
  if (time[head_] >= cutoff_ms) return 0;
  if (time[(head_ + size_ - 1) & mask()] < cutoff_ms) return size_;
  // Invariant: entry lo is expired, entry hi is not (times non-decreasing).
  size_t lo = 0;
  size_t hi = size_ - 1;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (time[(head_ + mid) & mask()] < cutoff_ms) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

size_t PostBin::EvictOlderThan(int64_t cutoff_ms) {
  const size_t evicted = CountOlderThan(cutoff_ms);
  head_ = (head_ + evicted) & mask();
  size_ -= evicted;
  return evicted;
}

void PostBin::Save(BinaryWriter* out) const {
  // The ring slot count is part of the snapshot: ApproxBytes() reports
  // capacity (what the process holds resident), so a restored bin must
  // keep the original ring or recovered memory metrics would drift from
  // an uninterrupted run's.
  out->PutVarint(capacity_);
  out->PutVarint(size_);
  int64_t prev_time = 0;
  for (size_t i = 0; i < size_; ++i) {
    const BinEntry entry = FromOldest(i);
    out->PutSignedVarint(entry.time_ms - prev_time);
    prev_time = entry.time_ms;
    out->PutFixed64(entry.simhash);
    out->PutVarint(entry.author);
    out->PutVarint(entry.post_id);
  }
}

bool PostBin::Load(BinaryReader& in) {
  *this = PostBin{};
  uint64_t capacity;
  uint64_t count;
  if (!in.GetVarint(&capacity) || !in.GetVarint(&count)) return false;
  // The ring is always a power of two (possibly empty), never absurdly
  // large relative to what one bin can hold, and big enough for its
  // entries. Anything else is a corrupt snapshot — reject it before
  // trusting it with an allocation.
  constexpr uint64_t kMaxSnapshotSlots = 1ull << 24;
  if (capacity > kMaxSnapshotSlots || count > capacity ||
      (capacity & (capacity - 1)) != 0) {
    return false;
  }
  if (capacity > 0) Allocate(static_cast<size_t>(capacity));
  int64_t prev_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta;
    uint64_t hash;
    uint64_t author, post_id;
    if (!in.GetSignedVarint(&delta) || !in.GetFixed64(&hash) ||
        !in.GetVarint(&author) || !in.GetVarint(&post_id)) {
      *this = PostBin{};
      return false;
    }
    prev_time += delta;
    time_lane()[size_] = prev_time;
    hash_lane()[size_] = hash;
    author_lane()[size_] = static_cast<AuthorId>(author);
    id_lane()[size_] = static_cast<PostId>(post_id);
    ++size_;
  }
  return true;
}

}  // namespace firehose
