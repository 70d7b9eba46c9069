// Spatial compression across locations (paper §3.2): "we remove those
// entries that are close to each other within a predefined time
// duration, with the same Entry Data and Job ID, but from different
// locations."  The surviving entry is the earliest reporter.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "bgl/record.hpp"
#include "common/types.hpp"
#include "preprocess/tuple_window.hpp"

namespace dml::preprocess {

class SpatialFilter {
 public:
  /// threshold <= 0 disables compression.
  explicit SpatialFilter(DurationSec threshold)
      : threshold_(threshold), window_(threshold) {}

  /// True if the record starts a new tuple of its (entry data, job);
  /// false if it extends the running one.  Exact for input in time
  /// order or out of order by at most one threshold (tuple_window.hpp).
  bool admit(const bgl::RasRecord& record);

  std::uint64_t passed() const { return passed_; }
  std::uint64_t merged() const { return merged_; }
  DurationSec threshold() const { return threshold_; }
  /// Keys remembered now (bounded by the forgetting rule).
  std::size_t keys() const { return last_seen_.size(); }

 private:
  struct Key {
    std::uint64_t entry_hash;
    JobId job;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t z = k.entry_hash ^ (static_cast<std::uint64_t>(k.job)
                                        << 32);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  DurationSec threshold_;
  TupleWindow window_;
  std::unordered_map<Key, TimeSec, KeyHash> last_seen_;
  std::uint64_t passed_ = 0;
  std::uint64_t merged_ = 0;
};

}  // namespace dml::preprocess
