#ifndef FIREHOSE_STREAM_POST_BIN_H_
#define FIREHOSE_STREAM_POST_BIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "src/util/binary.h"
#include "src/stream/post.h"

namespace firehose {

/// Compact record a post bin stores per post: everything a coverage check
/// needs (time, fingerprint, author), without the text.
struct BinEntry {
  int64_t time_ms;
  uint64_t simhash;
  AuthorId author;
  PostId post_id;
};

/// Bytes one logical entry occupies across the bin's four lanes. Kept as
/// an explicit constant (rather than sizeof(BinEntry)) so ApproxBytes()
/// reports the lanes' true footprint independent of struct padding.
inline constexpr size_t kBinEntryLaneBytes =
    sizeof(int64_t) + sizeof(uint64_t) + sizeof(AuthorId) + sizeof(PostId);

/// Time-windowed post bin: the circular array of §4 ("Handling Time
/// Diversity"). Entries are pushed in non-decreasing time order; entries
/// older than the λt window are evicted from the front. The buffer is a
/// growable ring, so both insertion and eviction are amortized O(1), and
/// iteration from newest to oldest is cache-friendly.
///
/// Storage is structure-of-arrays: four parallel ring lanes (time,
/// fingerprint, author, post id) sharing one head/size/capacity, carved
/// back to back from a single buffer of capacity * kBinEntryLaneBytes
/// bytes. The coverage kernel (src/core/coverage_kernel.h) scans the
/// fingerprint lane as raw contiguous spans — a ring has at most two
/// contiguous segments — so the hot XOR+popcount loop never performs
/// per-entry masked indexing and never loads the lanes the current test
/// does not need; one allocation per ring keeps a small bin's lanes on
/// neighbouring cache lines.
class PostBin {
 public:
  PostBin() = default;
  PostBin(PostBin&& other) noexcept { *this = std::move(other); }
  /// A moved-from bin is empty and usable.
  PostBin& operator=(PostBin&& other) noexcept {
    buffer_ = std::move(other.buffer_);
    capacity_ = std::exchange(other.capacity_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// One contiguous stretch of the ring, exposed as parallel lane
  /// pointers: element `i` of every lane describes the same entry.
  struct LaneSpan {
    const int64_t* time_ms = nullptr;
    const uint64_t* simhash = nullptr;
    const AuthorId* author = nullptr;
    const PostId* post_id = nullptr;
    size_t size = 0;
  };

  /// Appends an entry. Entries must arrive in non-decreasing `time_ms`
  /// order (streams are time-ordered); violating this breaks eviction.
  void Push(const BinEntry& entry);

  /// Removes all entries with time_ms < cutoff_ms. Returns the number of
  /// evicted entries. O(log size): the λt boundary is binary-searched in
  /// the time lane and the head advances past the whole expired prefix.
  size_t EvictOlderThan(int64_t cutoff_ms);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Entry `i` positions from the newest (FromNewest(0) is the most
  /// recent). Precondition: i < size(). Gathers the four lanes into a
  /// BinEntry; hot loops should iterate Segments() instead.
  BinEntry FromNewest(size_t i) const {
    return At((head_ + size_ - 1 - i) & mask());
  }

  /// Entry `i` positions from the oldest. Precondition: i < size().
  BinEntry FromOldest(size_t i) const { return At((head_ + i) & mask()); }

  /// Fills `out[0..1]` with the ring's contiguous segments in oldest→
  /// newest order and returns the segment count (0, 1 or 2). Logical
  /// entry `i` from the oldest lives in out[0] while i < out[0].size and
  /// in out[1] at offset i - out[0].size otherwise. The spans stay valid
  /// until the next Push / EvictOlderThan / Load — reading one after a
  /// mutating call is flagged statically by firehose_analyze's
  /// `view-invalidation` pass (DESIGN.md §4g); re-acquire instead.
  size_t Segments(LaneSpan out[2]) const;

  /// Number of entries with time_ms < cutoff_ms — the index (from the
  /// oldest) of the λt boundary, found by binary search over the
  /// time-ordered ring. Scans can skip this prefix without touching it.
  size_t CountOlderThan(int64_t cutoff_ms) const;

  /// Bytes of the backing ring (capacity, not size — what the process
  /// actually holds resident).
  size_t ApproxBytes() const { return capacity_ * kBinEntryLaneBytes; }

  /// Serializes the ring capacity plus the live entries (oldest to
  /// newest, delta-encoded) for diversifier failover snapshots. Capacity
  /// is included so a restored bin reports the same ApproxBytes() as the
  /// original.
  void Save(BinaryWriter* out) const;

  /// Replaces the contents from a Save()d snapshot; false (contents
  /// undefined-but-safe: empty) on malformed input.
  bool Load(BinaryReader& in);

 private:
  /// Reallocates the ring to the smallest power of two >= min_capacity
  /// (at least double the current capacity), compacting to head_ = 0.
  void Grow(size_t min_capacity);

  /// Replaces the buffer with an uninitialized one of `capacity` slots.
  void Allocate(size_t capacity);

  size_t mask() const { return capacity_ - 1; }

  // Lane bases: time | simhash | author | post id, each capacity_ slots.
  // Wider lanes come first, so every lane starts aligned for its type.
  // The byte buffer implicitly creates the lanes' arrays; launder makes
  // the cast pointer refer to them. Only called with a buffer allocated.
  template <typename T>
  T* lane(size_t preceding_lane_bytes) const {
    return std::launder(reinterpret_cast<T*>(
        buffer_.get() + capacity_ * preceding_lane_bytes));
  }
  int64_t* time_lane() const { return lane<int64_t>(0); }
  uint64_t* hash_lane() const { return lane<uint64_t>(sizeof(int64_t)); }
  AuthorId* author_lane() const {
    return lane<AuthorId>(sizeof(int64_t) + sizeof(uint64_t));
  }
  PostId* id_lane() const {
    return lane<PostId>(sizeof(int64_t) + sizeof(uint64_t) + sizeof(AuthorId));
  }

  BinEntry At(size_t slot) const {
    return BinEntry{time_lane()[slot], hash_lane()[slot], author_lane()[slot],
                    id_lane()[slot]};
  }

  // The power-of-two ring's four lanes; null until the first Push.
  std::unique_ptr<std::byte[]> buffer_;
  size_t capacity_ = 0;  // slots per lane (0 or a power of two)
  size_t head_ = 0;      // index of the oldest entry
  size_t size_ = 0;
};

}  // namespace firehose

#endif  // FIREHOSE_STREAM_POST_BIN_H_
