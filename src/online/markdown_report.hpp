// Markdown run reports: renders a DynamicDriver result (plus optional
// operational analysis) as a self-contained report an operator can file
// — per-interval accuracy, bootstrap confidence intervals, rule churn,
// and training-cost summaries.  `dmlfp run --report out.md` uses this.
// The report only reads: every warning it analyses is one the driver
// already scored (DriverResult::warnings).
#pragma once

#include <ostream>
#include <string>

#include "online/driver.hpp"
#include "storage/event_repository.hpp"

namespace dml::online {

struct ReportOptions {
  std::string title = "Failure-prediction run report";
  /// Include the operational analysis: lead times and per-category
  /// recall of the warnings the driver scored, against the test span's
  /// events (one scan of the test span).
  bool include_lead_times = true;
  /// How many of the most frequent failure categories to break out.
  std::size_t top_categories = 8;
};

/// Writes the report; `repo` must be the repository the driver ran on
/// (used for the log summary and the test-span events).
void write_markdown_report(std::ostream& out, const DriverConfig& config,
                           const DriverResult& result,
                           const storage::EventRepository& repo,
                           const ReportOptions& options = {});

}  // namespace dml::online
