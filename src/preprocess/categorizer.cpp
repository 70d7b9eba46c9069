#include "preprocess/categorizer.hpp"

#include <bit>
#include <cstring>

namespace dml::preprocess {

static_assert(std::has_single_bit(Categorizer::kMemoSlots));

std::size_t Categorizer::memo_slot(bgl::Facility facility, Severity severity,
                                   std::string_view entry) {
  // 2^64 / golden ratio: Fibonacci hashing's multiplier.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h = entry.size() ^
                    static_cast<std::uint64_t>(facility) << 56 ^
                    static_cast<std::uint64_t>(severity) << 48;
  const char* p = entry.data();
  std::size_t n = entry.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  constexpr int kSlotBits = std::countr_zero(kMemoSlots);
  return static_cast<std::size_t>((h * kMul) >> (64 - kSlotBits));
}

const bgl::EventCategory* Categorizer::classify(
    const bgl::RasRecord& record) {
  const bgl::EventCategory* category = lookup(record);
  if (category == nullptr) {
    ++stats_.unclassified;
    return nullptr;
  }
  ++stats_.classified;
  if (record.is_fatal_severity() && !category->fatal) {
    ++stats_.demoted_nominal_fatal;
  }
  return category;
}

const bgl::EventCategory* Categorizer::search(
    const bgl::RasRecord& record) const {
  const auto id = taxonomy_->classify(record.facility, record.severity,
                                      record.entry_data);
  return id ? &taxonomy_->category(*id) : nullptr;
}

const bgl::EventCategory* Categorizer::lookup(const bgl::RasRecord& record) {
  const std::string_view entry = record.entry_data;
  if (entry.size() > kMemoMaxEntry) return search(record);
  if (memo_.empty()) memo_.resize(kMemoSlots);
  MemoSlot& slot = memo_[memo_slot(record.facility, record.severity, entry)];
  if (slot.filled && slot.facility == record.facility &&
      slot.severity == record.severity && slot.entry == entry) {
    return slot.category;
  }
  slot.category = search(record);
  // A fresh string when the key outgrows the slot's: its capacity is
  // then exactly the key's, which keeps memo_key_bytes() bounded.
  if (entry.size() > slot.entry.capacity()) {
    slot.entry = std::string(entry);
  } else {
    slot.entry.assign(entry);
  }
  slot.facility = record.facility;
  slot.severity = record.severity;
  slot.filled = true;
  return slot.category;
}

std::size_t Categorizer::memo_key_bytes() const {
  std::size_t bytes = 0;
  for (const MemoSlot& slot : memo_) bytes += slot.entry.capacity();
  return bytes;
}

}  // namespace dml::preprocess
