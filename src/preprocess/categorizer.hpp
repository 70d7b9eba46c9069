// Event categorizer (paper §3.1): maps each raw record onto one of the
// 219 low-level categories by facility, severity, and ENTRY DATA pattern.
// The categorizer is also where "fake" fatal events are demoted: a
// record whose severity claims FATAL/FAILURE but whose category
// administrators excluded from the failure list gets a category with
// fatal == false.
#pragma once

#include <cstdint>

#include "bgl/record.hpp"
#include "bgl/taxonomy.hpp"

namespace dml::preprocess {

class Categorizer {
 public:
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

 private:
  const bgl::Taxonomy* taxonomy_;
  Stats stats_;
};

}  // namespace dml::preprocess
