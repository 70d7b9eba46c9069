// The full data-preprocessing pipeline of Figure 1: categorizer ->
// temporal filter -> spatial filter -> unique categorized events.
// Implements logio::RecordSink so a generator or a log parser can stream
// straight into it with bounded memory.
#pragma once

#include <vector>

#include "logio/event_store.hpp"
#include "logio/record_sink.hpp"
#include "preprocess/streaming_pipeline.hpp"

namespace dml::preprocess {

class PreprocessPipeline final : public logio::RecordSink {
 public:
  /// Both filters use the same threshold, per the paper's single
  /// filtering-threshold sweep (Table 4); 300 s is the production value.
  explicit PreprocessPipeline(DurationSec threshold,
                              const bgl::Taxonomy& taxonomy = bgl::taxonomy());

  void consume(const bgl::RasRecord& record) override;

  const PipelineStats& stats() const { return streaming_.stats(); }
  const Categorizer::Stats& categorizer_stats() const {
    return streaming_.categorizer_stats();
  }

  /// Unique events accumulated so far (time-ordered as pushed).
  const std::vector<bgl::Event>& events() const { return events_; }

  /// Moves the accumulated events into an EventStore.
  logio::EventStore take_store();

 private:
  StreamingPipeline streaming_;
  std::vector<bgl::Event> events_;
};

/// Runs the same stream through pipelines at several thresholds at once
/// (the Table 4 sweep), keeping only their statistics (constant memory).
class ThresholdSweep final : public logio::RecordSink {
 public:
  explicit ThresholdSweep(std::vector<DurationSec> thresholds);

  void consume(const bgl::RasRecord& record) override;

  const std::vector<DurationSec>& thresholds() const { return thresholds_; }
  const PipelineStats& stats_at(std::size_t i) const;

  /// The paper's iterative threshold choice (§3.2): walk the candidate
  /// thresholds in increasing order and stop at the first whose unique
  /// count shrinks by less than `epsilon` (relative) versus the previous
  /// candidate.  Returns the chosen threshold.
  DurationSec select_threshold(double epsilon = 0.05) const;

 private:
  std::vector<DurationSec> thresholds_;
  std::vector<StreamingPipeline> pipelines_;
};

}  // namespace dml::preprocess
