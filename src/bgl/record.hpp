// The raw RAS record (paper Table 1) and the categorized event the
// prediction pipeline operates on after preprocessing.
#pragma once

#include <string>
#include <vector>

#include "bgl/location.hpp"
#include "bgl/taxonomy.hpp"
#include "common/severity.hpp"
#include "common/types.hpp"

namespace dml::bgl {

/// One raw log entry, attribute-for-attribute per Table 1.
struct RasRecord {
  RecordId record_id = 0;        // RECID: sequence number
  EventType event_type = EventType::kRas;
  TimeSec event_time = 0;        // second-resolution timestamp
  JobId job_id = kNoJob;
  Location location;
  std::string entry_data;        // short free-text description
  Facility facility = Facility::kKernel;
  Severity severity = Severity::kInfo;

  bool is_fatal_severity() const { return dml::is_fatal_severity(severity); }

  friend bool operator==(const RasRecord&, const RasRecord&) = default;
};

/// A unique event after categorization + filtering: the record collapsed
/// onto its taxonomy category.  This is what the learners and the
/// predictor consume.
struct Event {
  TimeSec time = 0;
  CategoryId category = kInvalidCategory;
  JobId job_id = kNoJob;
  Location location;
  /// True failure per the cleaned taxonomy (not merely FATAL severity).
  bool fatal = false;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Orders events by time, breaking ties by category then location, so
/// that pipelines are deterministic.
struct EventTimeOrder {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.category != b.category) return a.category < b.category;
    return a.location.packed() < b.location.packed();
  }
};

}  // namespace dml::bgl
