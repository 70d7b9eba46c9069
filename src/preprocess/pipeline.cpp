#include "preprocess/pipeline.hpp"

#include <stdexcept>

namespace dml::preprocess {

PreprocessPipeline::PreprocessPipeline(DurationSec threshold,
                                       const bgl::Taxonomy& taxonomy)
    : streaming_(threshold, taxonomy) {}

void PreprocessPipeline::consume(const bgl::RasRecord& record) {
  auto event = streaming_.push(record);
  if (event) events_.push_back(*event);
}

logio::EventStore PreprocessPipeline::take_store() {
  return logio::EventStore(std::move(events_));
}

ThresholdSweep::ThresholdSweep(std::vector<DurationSec> thresholds)
    : thresholds_(std::move(thresholds)) {
  if (thresholds_.empty()) {
    throw std::invalid_argument("ThresholdSweep: no thresholds");
  }
  pipelines_.reserve(thresholds_.size());
  for (DurationSec t : thresholds_) {
    pipelines_.emplace_back(t);
  }
}

void ThresholdSweep::consume(const bgl::RasRecord& record) {
  for (auto& pipeline : pipelines_) pipeline.push(record);
}

const PipelineStats& ThresholdSweep::stats_at(std::size_t i) const {
  return pipelines_.at(i).stats();
}

DurationSec ThresholdSweep::select_threshold(double epsilon) const {
  for (std::size_t i = 1; i < pipelines_.size(); ++i) {
    const auto prev = static_cast<double>(stats_at(i - 1).unique_events);
    const auto curr = static_cast<double>(stats_at(i).unique_events);
    if (prev <= 0.0) return thresholds_[i - 1];
    if ((prev - curr) / prev < epsilon) return thresholds_[i];
  }
  return thresholds_.back();
}

}  // namespace dml::preprocess
