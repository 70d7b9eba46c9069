// Open-addressing hash map for unsigned-integer keys on serving hot
// paths.  One flat slot array, linear probing, backward-shift deletion
// (no tombstones), power-of-two capacity: a lookup is one multiply-shift
// hash plus a short contiguous scan, instead of the pointer chase of
// std::unordered_map's separate chaining.  The predictor keys recent
// counts, scoped counts and active-warning deadlines with this; those
// maps are hit 4-6 times per served event.  The temporal filter keys
// the last time of each running tuple with it, once per raw record.
//
// Not a general-purpose container: keys are values (no sentinel is
// reserved — occupancy is a per-slot flag), iteration order is
// unspecified, and pointers/references are invalidated by any insert
// or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dml::common {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned integers");

 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  bool contains(K key) const { return find(key) != nullptr; }

  const V* find(K key) const {
    if (slots_.empty()) return nullptr;
    // Probe termination: the load factor keeps at least one slot free,
    // so every probe chain ends at an unused slot.
    DML_DCHECK(size_ < slots_.size());
    std::size_t i = index_of(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  V* find(K key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  /// Inserts a default V when absent (like std::unordered_map::operator[]).
  V& operator[](K key) { return *try_emplace(key, V{}).first; }

  /// Inserts `value` when `key` is absent (like
  /// std::unordered_map::try_emplace).  Returns the key's value and
  /// whether it was inserted.
  std::pair<V*, bool> try_emplace(K key, V value) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    // rehash() re-established the <= 3/4 load factor, so insertion
    // cannot fill the table and the probe below terminates.
    DML_DCHECK((size_ + 1) * 4 <= slots_.size() * 3);
    std::size_t i = index_of(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i].used = true;
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes every entry for which `pred(key, value)` holds, then
  /// rebuilds the table at the smallest capacity that holds the rest
  /// (so a map that shrinks gives its memory back).  Returns the number
  /// removed.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    const std::size_t before = size_;
    for (Slot& slot : slots_) {
      if (slot.used && pred(slot.key, std::as_const(slot.value))) {
        slot.used = false;
        --size_;
      }
    }
    std::size_t capacity = 16;
    while ((size_ + 1) * 4 > capacity * 3) capacity *= 2;
    // The freed slots broke probe chains: reinsert the survivors.
    if (!slots_.empty()) rehash(capacity);
    return before - size_;
  }

  /// Removes `key` if present (returns whether it was).  Backward-shift:
  /// every displaced follower in the probe chain moves one slot closer
  /// to its ideal position, so lookups never traverse deleted slots.
  bool erase(K key) {
    if (slots_.empty()) return false;
    DML_DCHECK(size_ < slots_.size());
    std::size_t i = index_of(key);
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask_;
    if (!slots_[i].used) return false;
    DML_DCHECK(size_ > 0);
    std::size_t hole = i;
    std::size_t cur = (i + 1) & mask_;
    while (slots_[cur].used) {
      const std::size_t ideal = index_of(slots_[cur].key);
      // Movable iff its probe distance reaches back to the hole.
      if (((cur - ideal) & mask_) >= ((cur - hole) & mask_)) {
        slots_[hole].key = slots_[cur].key;
        slots_[hole].value = std::move(slots_[cur].value);
        hole = cur;
      }
      cur = (cur + 1) & mask_;
    }
    slots_[hole].used = false;
    --size_;
    return true;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };

  std::size_t index_of(K key) const {
    // Fibonacci multiply-shift; the high bits carry the mix.
    std::uint64_t h = static_cast<std::uint64_t>(key);
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & mask_;
  }

  void rehash(std::size_t capacity) {
    // index_of masks with capacity - 1; anything but a power of two
    // would alias probe chains.
    DML_DCHECK((capacity & (capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.used) try_emplace(slot.key, std::move(slot.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dml::common
