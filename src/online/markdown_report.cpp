#include "online/markdown_report.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/civil_time.hpp"
#include "online/report.hpp"
#include "predict/analysis.hpp"
#include "stats/bootstrap.hpp"

namespace dml::online {
namespace {

std::string pct(double value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * value);
  return buf;
}

std::string f2(double value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

}  // namespace

void write_markdown_report(std::ostream& out, const DriverConfig& config,
                           const DriverResult& result,
                           const storage::EventRepository& repo,
                           const ReportOptions& options) {
  const std::size_t failures =
      repo.fatal_count_between(repo.first_time(), repo.last_time() + 1);
  out << "# " << options.title << "\n\n";
  out << "- log span: " << format_timestamp(repo.first_time()) << " to "
      << format_timestamp(repo.last_time()) << " (" << repo.size()
      << " events, " << failures << " failures)\n";
  out << "- mode: " << to_string(config.mode) << ", training "
      << config.training_weeks << " wk, retrain every "
      << config.retrain_weeks << " wk, window " << config.prediction_window
      << " s\n";
  out << "- reviser: " << (config.use_reviser ? "on" : "off")
      << " (MinROC " << config.reviser.min_roc << ")\n\n";

  if (result.intervals.empty()) {
    out << "*No prediction intervals (training span exceeds the log).*\n";
    return;
  }

  // Headline with bootstrap CIs over intervals.
  std::vector<stats::ConfusionCounts> blocks;
  for (const auto& interval : result.intervals) {
    blocks.push_back(interval.counts);
  }
  const auto precision_ci = stats::bootstrap_ci(blocks, &stats::precision);
  const auto recall_ci = stats::bootstrap_ci(blocks, &stats::recall);
  out << "## Headline\n\n";
  out << "| metric | value | 95% CI |\n|---|---|---|\n";
  out << "| precision | " << f2(precision_ci.point) << " | ["
      << f2(precision_ci.lo) << ", " << f2(precision_ci.hi) << "] |\n";
  out << "| recall | " << f2(recall_ci.point) << " | [" << f2(recall_ci.lo)
      << ", " << f2(recall_ci.hi) << "] |\n\n";

  // Per-interval table.
  out << "## Intervals\n\n";
  out << "| week | precision | recall | failures | warnings | rules | "
         "added | removed(meta) | removed(reviser) | train s |\n";
  out << "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& interval : result.intervals) {
    char train[24];
    std::snprintf(train, sizeof(train), "%.2f",
                  interval.train_times.total_seconds() +
                      interval.revise_seconds);
    out << "| " << interval.week << " | " << f2(interval.precision())
        << " | " << f2(interval.recall()) << " | " << interval.fatal_count
        << " | " << interval.warning_count << " | " << interval.rules_active
        << " | " << interval.churn_meta.added << " | "
        << interval.churn_meta.removed << " | "
        << interval.rules_removed_by_reviser << " | " << train << " |\n";
  }
  out << "\n";

  // Recall trend sparkline.
  std::vector<double> recalls;
  for (const auto& interval : result.intervals) {
    recalls.push_back(interval.recall());
  }
  out << "recall trend: `" << sparkline(recalls) << "`\n\n";

  if (!options.include_lead_times) return;

  // Operational analysis of the warnings the driver scored, over the
  // whole test span.
  out << "## Operational analysis (test span replay)\n\n";
  const TimeSec test_begin = result.intervals.front().test_begin;
  const TimeSec test_end = result.intervals.back().test_end;
  const auto test_events = storage::materialize(repo, test_begin, test_end);
  const auto leads = predict::lead_time_stats(test_events, result.warnings,
                                              config.prediction_window);
  out << "- covered failures: " << leads.matched_warnings << "\n";
  char lead_line[160];
  std::snprintf(lead_line, sizeof(lead_line),
                "- warning lead time: median %.0f s (p10 %.0f, p90 %.0f); "
                "%s give >= 1 min of notice\n",
                leads.median_seconds, leads.p10_seconds, leads.p90_seconds,
                pct(leads.actionable_fraction).c_str());
  out << lead_line;

  const auto accuracy = predict::per_category_accuracy(
      test_events, result.warnings, config.prediction_window);
  out << "\n| failure category | failures | recall |\n|---|---|---|\n";
  const std::size_t top = std::min(options.top_categories, accuracy.size());
  for (std::size_t i = 0; i < top; ++i) {
    out << "| " << bgl::taxonomy().category(accuracy[i].category).name
        << " | " << accuracy[i].failures << " | " << f2(accuracy[i].recall())
        << " |\n";
  }
}

}  // namespace dml::online
