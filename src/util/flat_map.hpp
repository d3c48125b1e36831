// Insert-only open-addressing hash map used for the BDD operation caches.
// The compiler's hot loops are dominated by memo-table lookups; linear
// probing over a flat array is several times faster than
// std::unordered_map's chained buckets and avoids per-node allocation.
// No erase support (the caches only grow, then clear wholesale).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace camus::util {

template <typename K, typename V, typename Hash>
class FlatMap {
 public:
  explicit FlatMap(std::size_t initial_capacity_log2 = 10)
      : mask_((1ull << initial_capacity_log2) - 1),
        slots_(mask_ + 1),
        used_(mask_ + 1, 0) {}

  // Returns the value for key, or nullptr. The pointer is invalidated by
  // the next insert.
  const V* find(const K& key) const {
    ++probes_;
    std::size_t i = Hash{}(key)&mask_;
    while (used_[i]) {
      if (slots_[i].first == key) {
        ++hits_;
        return &slots_[i].second;
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  // Inserts; key must not be present (memo-table discipline).
  void insert(const K& key, V value) {
    if ((size_ + 1) * 10 > (mask_ + 1) * 7) grow();
    std::size_t i = Hash{}(key)&mask_;
    while (used_[i]) i = (i + 1) & mask_;
    used_[i] = 1;
    slots_[i] = {key, std::move(value)};
    ++size_;
  }

  std::size_t size() const noexcept { return size_; }

  // Allocated slot count (memory accounting, not occupancy).
  std::size_t capacity() const noexcept { return mask_ + 1; }

  // Heap footprint of the backing arrays in bytes.
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(std::pair<K, V>) +
           used_.capacity() * sizeof(std::uint8_t);
  }

  // Lifetime totals across clear()s — the compile-telemetry memo hit rate.
  std::uint64_t probes() const noexcept { return probes_; }
  std::uint64_t hits() const noexcept { return hits_; }

  void clear() {
    std::fill(used_.begin(), used_.end(), 0);
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_cap = (mask_ + 1) * 2;
    std::vector<std::pair<K, V>> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    mask_ = new_cap - 1;
    slots_.assign(new_cap, {});
    used_.assign(new_cap, 0);
    for (std::size_t j = 0; j < old_slots.size(); ++j) {
      if (!old_used[j]) continue;
      std::size_t i = Hash{}(old_slots[j].first) & mask_;
      while (used_[i]) i = (i + 1) & mask_;
      used_[i] = 1;
      slots_[i] = std::move(old_slots[j]);
    }
  }

  std::size_t mask_;
  std::vector<std::pair<K, V>> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  mutable std::uint64_t probes_ = 0;
  mutable std::uint64_t hits_ = 0;
};

// Open-addressed index over the positions of an array that holds its own
// keys (leaf states, multicast port sets, BDD terminals): slots store only
// (key hash, position), so the index copies as one flat vector and never
// duplicates a key. Callers pass the key's hash and a test of whether the
// key sits at a position. Insert-only, like FlatMap; rebuild after erasing.
// Unlike FlatMap, find() keeps no counters, so concurrent readers are safe.
class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // The position whose key `is_key` accepts among those hashed to `hash`,
  // or kNone.
  template <typename IsKey>
  std::uint32_t find(std::uint64_t hash, IsKey&& is_key) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = hash & mask_; slots_[i].pos != kNone;
         i = (i + 1) & mask_)
      if (slots_[i].hash == hash && is_key(slots_[i].pos)) return slots_[i].pos;
    return kNone;
  }

  // Adds a position; its key must not be indexed yet.
  void insert(std::uint64_t hash, std::uint32_t pos) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    place(hash, pos);
    ++size_;
  }

  // Keeps each position p as remap[p], or drops it when remap[p] is kNone
  // (`remap` has a slot per indexed position).
  void renumber(std::span<const std::uint32_t> remap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size(), Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.pos == kNone || remap[s.pos] == kNone) continue;
      place(s.hash, remap[s.pos]);
      ++size_;
    }
  }

  // Empties the index, keeping its capacity.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t pos = kNone;
  };

  void place(std::uint64_t hash, std::uint32_t pos) {
    std::size_t i = hash & mask_;
    while (slots_[i].pos != kNone) i = (i + 1) & mask_;
    slots_[i] = {hash, pos};
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old)
      if (s.pos != kNone) place(s.hash, s.pos);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// 64-bit mixer (splitmix64 finalizer) for composite integer keys.
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace camus::util
