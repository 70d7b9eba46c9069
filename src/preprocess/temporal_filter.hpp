// Temporal compression at a single location (paper §3.2): "events from
// the same location with identical values in the Job ID and Location
// fields are coalesced into a single entry, if reported within a
// predefined time duration."  We additionally key on the category so
// that distinct event types at one location never coalesce.
//
// Coalescing is gap-based (Hansen-Siewiorek tupling): a record extends
// the current tuple if it arrives within `threshold` of the previous
// record of the same key; the tuple is represented by its first record.
#pragma once

#include <cstdint>

#include "bgl/record.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "preprocess/tuple_window.hpp"

namespace dml::preprocess {

class TemporalFilter {
 public:
  /// threshold <= 0 disables compression (every record passes).
  explicit TemporalFilter(DurationSec threshold)
      : threshold_(threshold), window_(threshold) {}

  /// True if the record, classified as `category`, starts a new tuple;
  /// false if it extends the running tuple of its key.  Exact for input
  /// in time order or out of order by at most one threshold
  /// (tuple_window.hpp).
  bool admit(const bgl::RasRecord& record, CategoryId category);

  std::uint64_t passed() const { return passed_; }
  std::uint64_t merged() const { return merged_; }
  DurationSec threshold() const { return threshold_; }
  /// Keys remembered now (bounded by the forgetting rule).
  std::size_t keys() const { return last_seen_.size(); }

 private:
  DurationSec threshold_;
  TupleWindow window_;
  /// location (32) | job (hashed into 16) | category (16) -> time of
  /// the key's last record.
  common::FlatMap<std::uint64_t, TimeSec> last_seen_;
  std::uint64_t passed_ = 0;
  std::uint64_t merged_ = 0;
};

}  // namespace dml::preprocess
