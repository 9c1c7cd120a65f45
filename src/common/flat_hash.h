#ifndef WSVERIFY_COMMON_FLAT_HASH_H_
#define WSVERIFY_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsv {

/// Mixes a 64-bit key into a table hash (splitmix64 finalizer) — for
/// FlatIdSet users whose content is a packed integer key rather than a
/// hashed byte span.
inline size_t HashKey64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

/// An open-addressing id set keyed by precomputed hashes: the table stores
/// dense 32-bit ids, the caller owns the id -> payload mapping and supplies
/// hashes and an equality predicate at the call site. Linear probing over a
/// power-of-two slot array, one cache line per probe step — this replaces
/// the node-based std::unordered_set on the snapshot-intern and
/// product-state hot paths, where the per-hit cost of chasing bucket nodes
/// dominates.
///
/// Concurrency: Find is safe against concurrent Find (no mutation);
/// Insert requires exclusive access.
class FlatIdSet {
 public:
  static constexpr uint32_t kEmpty = static_cast<uint32_t>(-1);

  FlatIdSet() { Rehash(kMinSlots); }

  /// Looks up an entry with `hash` satisfying `eq(id)`; returns kEmpty when
  /// absent. `eq` is only called for candidates whose stored hash matches.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      uint32_t id = slots_[i];
      if (id == kEmpty) return kEmpty;
      if (hashes_[i] == hash && eq(id)) return id;
    }
  }

  /// Inserts `id` under `hash`. The caller has already checked absence via
  /// Find (content-addressed tables never insert duplicates).
  void Insert(size_t hash, uint32_t id) {
    if ((size_ + 1) * 8 > slots_.size() * 7) Rehash(slots_.size() * 2);
    InsertNoGrow(hash, id);
    ++size_;
  }

  size_t size() const { return size_; }

  /// Bytes held by the slot and hash arrays.
  size_t bytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           hashes_.capacity() * sizeof(size_t);
  }

  void Reserve(size_t n) {
    size_t want = kMinSlots;
    while (n * 8 > want * 7) want *= 2;
    if (want > slots_.size()) Rehash(want);
  }

 private:
  static constexpr size_t kMinSlots = 64;

  void InsertNoGrow(size_t hash, uint32_t id) {
    size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = id;
    hashes_[i] = hash;
  }

  void Rehash(size_t new_slots) {
    std::vector<uint32_t> old_slots = std::move(slots_);
    std::vector<size_t> old_hashes = std::move(hashes_);
    slots_.assign(new_slots, kEmpty);
    hashes_.assign(new_slots, 0);
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_slots[i] != kEmpty) InsertNoGrow(old_hashes[i], old_slots[i]);
    }
  }

  std::vector<uint32_t> slots_;
  /// Full hash per occupied slot: rules out almost every false candidate
  /// before the caller's (memcmp-heavy) equality runs, and makes rehashing
  /// recomputation-free.
  std::vector<size_t> hashes_;
  size_t size_ = 0;
};

}  // namespace wsv

#endif  // WSVERIFY_COMMON_FLAT_HASH_H_
