#include "preprocess/categorizer.hpp"

namespace dml::preprocess {

const bgl::EventCategory* Categorizer::classify(
    const bgl::RasRecord& record) {
  const auto category = taxonomy_->classify(record.facility, record.severity,
                                            record.entry_data);
  if (!category) {
    ++stats_.unclassified;
    return nullptr;
  }
  ++stats_.classified;
  const bgl::EventCategory& cat = taxonomy_->category(*category);
  if (record.is_fatal_severity() && !cat.fatal) {
    ++stats_.demoted_nominal_fatal;
  }
  return &cat;
}

}  // namespace dml::preprocess
