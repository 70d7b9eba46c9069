#include "online/markdown_report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "predict/analysis.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

TEST(MarkdownReport, RendersAllSections) {
  DriverConfig config;
  config.training_weeks = 12;
  const auto& store = testing::shared_store();
  const auto result = DynamicDriver(config).run(store);

  std::stringstream out;
  write_markdown_report(out, config, result, store);
  const std::string text = out.str();

  EXPECT_NE(text.find("# Failure-prediction run report"), std::string::npos);
  EXPECT_NE(text.find("## Headline"), std::string::npos);
  EXPECT_NE(text.find("95% CI"), std::string::npos);
  EXPECT_NE(text.find("## Intervals"), std::string::npos);
  EXPECT_NE(text.find("recall trend"), std::string::npos);
  EXPECT_NE(text.find("## Operational analysis"), std::string::npos);
  EXPECT_NE(text.find("warning lead time"), std::string::npos);
  EXPECT_NE(text.find("| failure category |"), std::string::npos);
  // One table row per interval.
  std::size_t rows = 0, pos = 0;
  while ((pos = text.find("\n| ", pos)) != std::string::npos) {
    ++rows;
    ++pos;
  }
  EXPECT_GE(rows, result.intervals.size());
}

TEST(MarkdownReport, CoveredFailuresAreTheDriversScoredWarnings) {
  DriverConfig config;
  config.training_weeks = 12;
  const auto& store = testing::shared_store();
  const auto result = DynamicDriver(config).run(store);
  ASSERT_FALSE(result.intervals.empty());

  // The report analyses the warnings the intervals scored — no second
  // train/predict pass of its own.
  std::size_t scored = 0;
  for (const auto& interval : result.intervals) {
    scored += interval.warning_count;
  }
  EXPECT_EQ(result.warnings.size(), scored);
  const auto test_events = store.between(result.intervals.front().test_begin,
                                         result.intervals.back().test_end);
  const auto leads = predict::lead_time_stats(test_events, result.warnings,
                                              config.prediction_window);
  ASSERT_GT(leads.matched_warnings, 0u);

  std::stringstream out;
  write_markdown_report(out, config, result, store);
  const std::string line =
      "- covered failures: " + std::to_string(leads.matched_warnings) + "\n";
  EXPECT_NE(out.str().find(line), std::string::npos) << out.str();
}

TEST(MarkdownReport, LeadTimesCanBeSkipped) {
  DriverConfig config;
  config.training_weeks = 12;
  const auto& store = testing::shared_store();
  const auto result = DynamicDriver(config).run(store);

  ReportOptions options;
  options.include_lead_times = false;
  options.title = "Custom title";
  std::stringstream out;
  write_markdown_report(out, config, result, store, options);
  const std::string text = out.str();
  EXPECT_NE(text.find("# Custom title"), std::string::npos);
  EXPECT_EQ(text.find("## Operational analysis"), std::string::npos);
}

TEST(MarkdownReport, EmptyResultIsGraceful) {
  DriverConfig config;
  config.training_weeks = 1000;  // no intervals
  const auto& store = testing::shared_store();
  const auto result = DynamicDriver(config).run(store);
  std::stringstream out;
  write_markdown_report(out, config, result, store);
  EXPECT_NE(out.str().find("No prediction intervals"), std::string::npos);
}

}  // namespace
}  // namespace dml::online
