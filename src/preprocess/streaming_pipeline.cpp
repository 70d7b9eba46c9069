#include "preprocess/streaming_pipeline.hpp"

#include "common/failpoint.hpp"

namespace dml::preprocess {

StreamingPipeline::StreamingPipeline(DurationSec threshold,
                                     const bgl::Taxonomy& taxonomy)
    : categorizer_(taxonomy), temporal_(threshold), spatial_(threshold) {}

std::optional<bgl::Event> StreamingPipeline::push(
    const bgl::RasRecord& record) {
  ++stats_.raw_records;
  switch (common::failpoint(common::failpoints::kPreprocessPush)) {
    case common::FailAction::kDrop:
    case common::FailAction::kCorrupt:
      // A corrupt raw record would be rejected by the categorizer
      // anyway; both actions degrade to a counted drop here.
      ++stats_.dropped_by_failpoint;
      return std::nullopt;
    default:
      break;
  }
  const bgl::EventCategory* category = categorizer_.classify(record);
  if (category == nullptr) {
    ++stats_.unclassified;
    return std::nullopt;
  }
  if (!temporal_.admit(record, category->id)) return std::nullopt;
  ++stats_.after_temporal;
  if (!spatial_.admit(record)) return std::nullopt;

  ++stats_.unique_events;
  ++stats_.unique_per_facility[static_cast<std::size_t>(record.facility)];
  return bgl::Event{.time = record.event_time,
                    .category = category->id,
                    .job_id = record.job_id,
                    .location = record.location,
                    .fatal = category->fatal};
}

}  // namespace dml::preprocess
