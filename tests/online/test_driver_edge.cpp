// Edge cases of the dynamic driver's scheduling.
#include <gtest/gtest.h>

#include "common/failpoint.hpp"
#include "online/driver.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

TEST(DriverEdge, TrainingLongerThanLogYieldsNoIntervals) {
  DriverConfig config;
  config.training_weeks = 1000;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  EXPECT_TRUE(result.intervals.empty());
}

TEST(DriverEdge, RetrainSpanLongerThanRemainderYieldsOneInterval) {
  DriverConfig config;
  config.training_weeks = 36;  // 40-week store -> 4 weeks left
  config.retrain_weeks = 52;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  ASSERT_EQ(result.intervals.size(), 1u);
  EXPECT_EQ(result.intervals[0].week, 36);
}

TEST(DriverEdge, ZeroClockTickDisablesPdTicks) {
  DriverConfig ticks;
  ticks.training_weeks = 12;
  DriverConfig no_ticks = ticks;
  no_ticks.clock_tick = 0;
  const auto with = DynamicDriver(ticks).run(testing::shared_store());
  const auto without = DynamicDriver(no_ticks).run(testing::shared_store());
  std::size_t warnings_with = 0, warnings_without = 0;
  for (const auto& iv : with.intervals) warnings_with += iv.warning_count;
  for (const auto& iv : without.intervals) {
    warnings_without += iv.warning_count;
  }
  // Quiet-period PD warnings disappear without ticks.
  EXPECT_LT(warnings_without, warnings_with);
}

TEST(DriverEdge, IntervalAccountingIsConsistent) {
  DriverConfig config;
  config.training_weeks = 12;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  for (const auto& interval : result.intervals) {
    EXPECT_EQ(interval.rules_active,
              interval.rules_from_meta - interval.rules_removed_by_reviser);
    EXPECT_EQ(interval.counts.true_positives +
                  interval.counts.false_negatives,
              interval.fatal_count);
    EXPECT_LE(interval.counts.false_positives, interval.warning_count);
    EXPECT_LT(interval.test_begin, interval.test_end);
  }
  // Intervals tile the test span without gaps.
  for (std::size_t i = 1; i < result.intervals.size(); ++i) {
    EXPECT_EQ(result.intervals[i].test_begin,
              result.intervals[i - 1].test_end);
  }
}

TEST(DriverEdge, AllLearnersEnabledRunsEndToEnd) {
  DriverConfig config;
  config.training_weeks = 12;
  config.learner.enable_correlation = true;
  config.predictor.location_scoped = false;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  ASSERT_FALSE(result.intervals.empty());
  EXPECT_GT(result.overall_recall(), 0.4);
  // The correlation learner contributes timings.
  bool saw_correlation_time = false;
  for (const auto& interval : result.intervals) {
    saw_correlation_time |= interval.train_times.correlation_seconds > 0.0;
  }
  EXPECT_TRUE(saw_correlation_time);
}

TEST(DriverEdge, LocationScopedDriverRuns) {
  DriverConfig config;
  config.training_weeks = 12;
  config.predictor.location_scoped = true;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  ASSERT_FALSE(result.intervals.empty());
  EXPECT_GT(result.overall_recall(), 0.05);
}

TEST(DriverEdge, AbandonedRetrainsAreReportedAsDegradations) {
  auto& failpoints = common::FailpointRegistry::instance();
  failpoints.reset();
  ASSERT_TRUE(failpoints.arm_from_string("retrain.build=throw"));
  DriverConfig config;
  config.training_weeks = 12;
  const auto result = DynamicDriver(config).run(testing::shared_store());
  failpoints.reset();
  // Every boundary's build threw: each is one incident, and the replay
  // still ran every interval on the (empty) rules in force.
  EXPECT_GT(result.engine_stats.retrain_failures, 0u);
  EXPECT_EQ(result.degradations.size(), result.engine_stats.retrain_failures);
  for (const auto& incident : result.degradations) {
    EXPECT_EQ(incident.kind, DegradationEvent::Kind::kRetrainFailure);
  }
  EXPECT_FALSE(result.intervals.empty());
}

TEST(DriverEdge, ServingTimeIsMeasuredOnlyUnderProfile) {
  DriverConfig config;
  config.training_weeks = 12;
  const auto plain = DynamicDriver(config).run(testing::shared_store());
  config.profile = true;
  const auto profiled = DynamicDriver(config).run(testing::shared_store());
  EXPECT_EQ(plain.engine_stats.serving_seconds, 0.0);
  EXPECT_GT(profiled.engine_stats.serving_seconds, 0.0);
  // Timing the serving path changes nothing the replay reports.
  EXPECT_EQ(plain.total_counts(), profiled.total_counts());
  EXPECT_EQ(plain.engine_stats.warnings_issued,
            profiled.engine_stats.warnings_issued);
}

TEST(DriverEdge, SingleEventStore) {
  bgl::Event e;
  e.time = 1000;
  e.category = bgl::taxonomy().fatal_ids().front();
  e.fatal = true;
  const logio::EventStore store({e});
  DriverConfig config;
  config.training_weeks = 1;
  const auto result = DynamicDriver(config).run(store);
  // No test span beyond the training window: no intervals, no crash.
  EXPECT_TRUE(result.intervals.empty());
}

}  // namespace
}  // namespace dml::online
