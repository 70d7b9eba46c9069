// Push-based core of the Figure 1 preprocessing chain: categorizer ->
// temporal filter -> spatial filter, one raw RAS record in, at most one
// unique categorized event out.  This is the single implementation of
// the chain; the batch pipeline (preprocess::PreprocessPipeline), the
// serving front-end (online::ShardedEngine) and the ingest path
// (`dmlfp ingest`) all consume it rather than re-inlining the three
// stages.  Memory stays bounded on an endless stream: each filter
// forgets keys more than two thresholds old.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "bgl/record.hpp"
#include "preprocess/categorizer.hpp"
#include "preprocess/spatial_filter.hpp"
#include "preprocess/temporal_filter.hpp"

namespace dml::preprocess {

struct PipelineStats {
  std::uint64_t raw_records = 0;
  std::uint64_t unclassified = 0;
  std::uint64_t after_temporal = 0;
  std::uint64_t unique_events = 0;
  /// Records swallowed by an armed `preprocess.push` drop/corrupt
  /// failpoint (fault injection; see common/failpoint.hpp).
  std::uint64_t dropped_by_failpoint = 0;
  /// Unique events per facility (one Table 4 column).
  std::array<std::uint64_t, bgl::kNumFacilities> unique_per_facility{};

  friend bool operator==(const PipelineStats&,
                         const PipelineStats&) = default;

  double compression_rate() const {
    if (raw_records == 0) return 0.0;
    return 1.0 - static_cast<double>(unique_events) /
                     static_cast<double>(raw_records);
  }
};

class StreamingPipeline {
 public:
  /// Both filters use the same threshold, per the paper's single
  /// filtering-threshold sweep (Table 4); 300 s is the production value.
  explicit StreamingPipeline(DurationSec threshold,
                             const bgl::Taxonomy& taxonomy = bgl::taxonomy());

  /// Feeds one raw record through the chain: classifies it once, then
  /// asks each filter to admit it, copying nothing.  Returns the
  /// surviving unique event, or nullopt when the record is unclassified
  /// or swallowed by a filter.
  ///
  /// Records must arrive in time order (the daemon refuses a frame whose
  /// times regress).  Input out of order by at most one threshold still
  /// gives exactly the events an unbounded filter would; beyond that,
  /// a key the filters have forgotten (tuple_window.hpp) may start a
  /// new tuple where an unbounded filter would have merged.
  std::optional<bgl::Event> push(const bgl::RasRecord& record);

  const PipelineStats& stats() const { return stats_; }
  const Categorizer::Stats& categorizer_stats() const {
    return categorizer_.stats();
  }

 private:
  Categorizer categorizer_;
  TemporalFilter temporal_;
  SpatialFilter spatial_;
  PipelineStats stats_;
};

}  // namespace dml::preprocess
