// Adaptive prediction-window selection (paper §7 future work).
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "online/driver.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

TEST(AdaptiveWindow, SelectsFromCandidatesAndRecordsChoice) {
  DriverConfig config;
  config.adaptive_window = true;
  config.training_weeks = 12;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  ASSERT_FALSE(result.intervals.empty());
  const std::set<DurationSec> candidates(std::begin(kWindowCandidates),
                                         std::end(kWindowCandidates));
  for (const auto& interval : result.intervals) {
    EXPECT_TRUE(candidates.contains(interval.window_used))
        << interval.window_used;
  }
}

TEST(AdaptiveWindow, DisabledModeUsesConfiguredWindow) {
  DriverConfig config;
  config.training_weeks = 12;
  config.prediction_window = 300;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  for (const auto& interval : result.intervals) {
    EXPECT_EQ(interval.window_used, 300);
  }
}

TEST(AdaptiveWindow, AccuracyComparableToFixedDefault) {
  // Auto-tuning must not collapse accuracy relative to the paper's fixed
  // 300 s window (F1-based comparison; it optimizes the tradeoff, so
  // individual metrics may move in either direction).
  DriverConfig fixed;
  fixed.training_weeks = 12;
  const auto fixed_result =
      DynamicDriver(fixed).run(testing::shared_store());

  DriverConfig adaptive = fixed;
  adaptive.adaptive_window = true;
  const auto adaptive_result =
      DynamicDriver(adaptive).run(testing::shared_store());

  const double fixed_f1 = stats::f1_score(fixed_result.total_counts());
  const double adaptive_f1 = stats::f1_score(adaptive_result.total_counts());
  EXPECT_GT(adaptive_f1, fixed_f1 - 0.1);
}

}  // namespace
}  // namespace dml::online
