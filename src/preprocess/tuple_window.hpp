// The gap rule and the forgetting rule that both filters of the
// Figure 1 chain share.  Each filter keeps, per key, the time of the
// key's last record; a record within `threshold` of it extends the
// running tuple (Hansen-Siewiorek tupling), anything later starts a
// new one.
//
// Forgetting: a key whose last record is more than two thresholds
// behind the newest time the filter has seen is dropped.  No verdict
// changes while input is out of order by at most one threshold: a
// later record of that key is no earlier than newest - threshold, so
// more than one threshold after the forgotten time, and it starts a
// new tuple whether or not the key is remembered.  A sweep costs one
// pass over the map, so it runs only once the map has doubled since
// the last sweep (from kSweepFloor keys): amortised O(1) per record,
// and the map holds at most about twice the keys seen within two
// thresholds, or kSweepFloor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/types.hpp"

namespace dml::preprocess {

class TupleWindow {
 public:
  static constexpr std::size_t kSweepFloor = 1024;

  /// threshold > 0; a filter with threshold <= 0 keeps no keys.
  explicit TupleWindow(DurationSec threshold)
      : threshold_(static_cast<std::uint64_t>(std::max<DurationSec>(
            threshold, 0))) {}

  /// Whether a record at `t` extends a tuple whose last record was at
  /// `last` (a record earlier than `last` always does).
  bool extends(TimeSec last, TimeSec t) const {
    return t < last || distance(last, t) <= threshold_;
  }

  /// Notes a record time.
  void observe(TimeSec t) { newest_ = std::max(newest_, t); }

  /// Whether a map now holding `keys` keys is due for a sweep.
  bool due(std::size_t keys) const { return keys >= sweep_at_; }

  /// Whether a key last seen at `last`, a time observe() saw, may be
  /// forgotten.
  bool stale(TimeSec last) const {
    return distance(last, newest_) > 2 * threshold_;
  }

  /// Notes the keys left after a sweep.
  void swept(std::size_t keys) { sweep_at_ = std::max(kSweepFloor, 2 * keys); }

 private:
  /// later - earlier for earlier <= later, without signed overflow.
  static std::uint64_t distance(TimeSec earlier, TimeSec later) {
    return static_cast<std::uint64_t>(later) -
           static_cast<std::uint64_t>(earlier);
  }

  std::uint64_t threshold_;
  TimeSec newest_ = std::numeric_limits<TimeSec>::min();
  std::size_t sweep_at_ = kSweepFloor;
};

}  // namespace dml::preprocess
