// Event categorizer (paper §3.1): maps each raw record onto one of the
// 219 low-level categories by facility, severity, and ENTRY DATA pattern.
// The categorizer is also where "fake" fatal events are demoted: a
// record whose severity claims FATAL/FAILURE but whose category
// administrators excluded from the failure list gets a category with
// fatal == false.
//
// Raw logs repeat themselves: more than 98% of records are temporal or
// spatial duplicates of an earlier one (§3.2), so the same (facility,
// severity, ENTRY DATA) comes back again and again.  The categorizer
// keeps a small direct-mapped memo from that key to what
// Taxonomy::classify returned for it, "unclassified" included.  A hit
// needs the whole key byte-equal, so the memo never changes a category;
// a slot conflict only costs a fresh search.  The memo is allocated at
// the first record, so a categorizer that never sees one holds none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bgl/record.hpp"
#include "bgl/taxonomy.hpp"

namespace dml::preprocess {

class Categorizer {
 public:
  /// Memo slots (a power of two).
  static constexpr std::size_t kMemoSlots = 1024;
  /// Entries longer than this are classified without the memo, so its
  /// keys never hold more than kMemoSlots * kMemoMaxEntry bytes.
  static constexpr std::size_t kMemoMaxEntry = 256;

  explicit Categorizer(const bgl::Taxonomy& taxonomy = bgl::taxonomy())
      : taxonomy_(&taxonomy) {}

  /// The record's category (its `fatal` is the cleaned taxonomy's
  /// verdict), or nullptr when none matches; both counted in stats.
  const bgl::EventCategory* classify(const bgl::RasRecord& record);

  struct Stats {
    std::uint64_t classified = 0;
    std::uint64_t unclassified = 0;
    /// Records with FATAL/FAILURE severity demoted to non-fatal.
    std::uint64_t demoted_nominal_fatal = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  const Stats& stats() const { return stats_; }

  const bgl::Taxonomy& taxonomy() const { return *taxonomy_; }

  /// Bytes the memo's keys reserve now: at most kMemoSlots *
  /// kMemoMaxEntry, and 0 before the first record.
  std::size_t memo_key_bytes() const;

  /// The memo slot of a key: a word-at-a-time multiplicative hash.  Any
  /// function of the key would be exact; a weak one only costs slot
  /// conflicts (public so tests can build them).
  static std::size_t memo_slot(bgl::Facility facility, Severity severity,
                               std::string_view entry);

 private:
  struct MemoSlot {
    std::string entry;
    bgl::Facility facility = bgl::Facility::kKernel;
    Severity severity = Severity::kInfo;
    bool filled = false;
    /// What Taxonomy::classify gave the key; nullptr = unclassified.
    const bgl::EventCategory* category = nullptr;
  };

  /// Taxonomy::classify's answer for the record's key.
  const bgl::EventCategory* search(const bgl::RasRecord& record) const;
  /// search() through the memo.
  const bgl::EventCategory* lookup(const bgl::RasRecord& record);

  const bgl::Taxonomy* taxonomy_;
  std::vector<MemoSlot> memo_;
  Stats stats_;
};

}  // namespace dml::preprocess
