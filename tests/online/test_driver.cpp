#include "online/driver.hpp"

#include <gtest/gtest.h>

#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

DriverConfig fast_config(TrainingMode mode) {
  DriverConfig config;
  config.mode = mode;
  config.training_weeks = 12;
  config.retrain_weeks = 4;
  return config;
}

const DriverResult& sliding_result() {
  static const DriverResult result =
      DynamicDriver(fast_config(TrainingMode::kSlidingWindow))
          .run(testing::shared_store());
  return result;
}

TEST(DynamicDriver, IntervalLayoutCoversTestSpan) {
  const auto& result = sliding_result();
  // 40-week log, 12-week initial training, 4-week retraining -> 7
  // intervals starting at week 12.
  ASSERT_EQ(result.intervals.size(), 7u);
  for (std::size_t i = 0; i < result.intervals.size(); ++i) {
    const auto& interval = result.intervals[i];
    EXPECT_EQ(interval.index, static_cast<int>(i));
    EXPECT_EQ(interval.week, 12 + 4 * static_cast<int>(i));
    EXPECT_EQ(interval.test_end - interval.test_begin <= 4 * kSecondsPerWeek,
              true);
    EXPECT_GT(interval.fatal_count, 0u);
  }
}

TEST(DynamicDriver, ProducesUsefulAccuracy) {
  const auto& result = sliding_result();
  // The paper reports precision 0.70-0.83 and recall 0.56-0.70 on the
  // real logs (with 26-week training); this fast configuration trains on
  // only 12 weeks, so the precision band is wider.
  EXPECT_GT(result.overall_precision(), 0.33);
  EXPECT_GT(result.overall_recall(), 0.45);
  EXPECT_LE(result.overall_precision(), 1.0);
}

TEST(DynamicDriver, RetrainingChangesRules) {
  const auto& result = sliding_result();
  std::size_t total_churn = 0;
  for (std::size_t i = 1; i < result.intervals.size(); ++i) {
    total_churn += result.intervals[i].churn.added +
                   result.intervals[i].churn.removed;
  }
  EXPECT_GT(total_churn, 0u);
}

TEST(DynamicDriver, ReviserRemovesRulesEachRetraining) {
  const auto& result = sliding_result();
  std::size_t removed = 0;
  for (const auto& interval : result.intervals) {
    removed += interval.rules_removed_by_reviser;
    EXPECT_EQ(interval.rules_active,
              interval.rules_from_meta - interval.rules_removed_by_reviser);
  }
  EXPECT_GT(removed, 0u);
}

TEST(DynamicDriver, StaticModeTrainsOnceAndKeepsRules) {
  const auto result = DynamicDriver(fast_config(TrainingMode::kStatic))
                          .run(testing::shared_store());
  ASSERT_GT(result.intervals.size(), 2u);
  const auto rules = result.intervals[0].rules_active;
  for (std::size_t i = 1; i < result.intervals.size(); ++i) {
    EXPECT_EQ(result.intervals[i].rules_active, rules);
    EXPECT_EQ(result.intervals[i].churn.added, 0u);
    EXPECT_EQ(result.intervals[i].churn.removed, 0u);
  }
}

TEST(DynamicDriver, DynamicBeatsStaticAfterReconfiguration) {
  // Observation #3: dynamically adjusting the training set is
  // indispensable — most visibly after a major system reconfiguration,
  // where the static rule set can never adapt.
  auto profile = loggen::MachineProfile::sdsc();
  profile.weeks = 44;
  profile.reconfig_week = 24;
  const logio::EventStore store(
      loggen::LogGenerator(profile, 321).generate_unique_events());

  auto post_reconfig_recall = [&](TrainingMode mode) {
    const auto result = DynamicDriver(fast_config(mode)).run(store);
    stats::ConfusionCounts counts;
    for (const auto& interval : result.intervals) {
      if (interval.week >= 32) counts += interval.counts;  // settled
    }
    return stats::recall(counts);
  };
  const double dynamic = post_reconfig_recall(TrainingMode::kSlidingWindow);
  const double frozen = post_reconfig_recall(TrainingMode::kStatic);
  EXPECT_GT(dynamic, frozen + 0.03);
}

TEST(DynamicDriver, WholeHistoryModeWorks) {
  const auto whole = DynamicDriver(fast_config(TrainingMode::kWholeHistory))
                         .run(testing::shared_store());
  ASSERT_FALSE(whole.intervals.empty());
  EXPECT_GT(whole.overall_recall(), 0.4);
  EXPECT_GT(whole.overall_precision(), 0.35);
}

TEST(DynamicDriver, ReviserToggleMatters) {
  auto config = fast_config(TrainingMode::kSlidingWindow);
  config.use_reviser = false;
  const auto unrevised = DynamicDriver(config).run(testing::shared_store());
  for (const auto& interval : unrevised.intervals) {
    EXPECT_EQ(interval.rules_removed_by_reviser, 0u);
  }
  // Figure 11: revising improves precision.
  EXPECT_GT(sliding_result().overall_precision(),
            unrevised.overall_precision());
}

TEST(DynamicDriver, TimingFieldsPopulated) {
  const auto& result = sliding_result();
  for (const auto& interval : result.intervals) {
    EXPECT_GE(interval.train_times.total_seconds(), 0.0);
    EXPECT_GE(interval.revise_seconds, 0.0);
    EXPECT_GE(interval.predict_seconds, 0.0);
  }
}

TEST(DynamicDriver, EngineStatsAccountForTheWholeReplay) {
  const auto& store = testing::shared_store();
  const auto& result = sliding_result();
  const SessionStats& session = result.engine_stats;
  // The replay observes every event of the log once.
  EXPECT_EQ(session.records_consumed, store.size());
  EXPECT_EQ(session.events_after_filtering, store.size());
  EXPECT_EQ(session.failures_seen, store.fatal_times().size());
  // Sliding mode retrains at every interval edge, and no build failed.
  EXPECT_EQ(session.retrainings, result.intervals.size());
  EXPECT_GT(session.retrain_build_seconds(), 0.0);
  EXPECT_EQ(session.retrain_failures, 0u);
  EXPECT_TRUE(result.degradations.empty());
  // Every scored warning was issued; the count also covers the ones
  // emitted at the interval edges, which are not scored.
  ASSERT_FALSE(result.warnings.empty());
  EXPECT_GE(session.warnings_issued, result.warnings.size());
}

TEST(DynamicDriver, EngineStatsSumTheAdoptedBuildsTimes) {
  const auto& result = sliding_result();
  const SessionStats& session = result.engine_stats;
  // Sliding mode adopts one build per interval, so the session's build
  // times are the intervals' summed in order (no resume).
  ASSERT_EQ(session.retrainings, result.intervals.size());
  meta::TrainTimes train;
  double revise = 0.0;
  for (const auto& interval : result.intervals) {
    train += interval.train_times;
    revise += interval.revise_seconds;
  }
  const meta::TrainTimes& got = session.retrain_train_times;
  EXPECT_EQ(got.association_seconds, train.association_seconds);
  EXPECT_EQ(got.statistical_seconds, train.statistical_seconds);
  EXPECT_EQ(got.distribution_seconds, train.distribution_seconds);
  EXPECT_EQ(got.correlation_seconds, train.correlation_seconds);
  EXPECT_EQ(got.ensemble_seconds, train.ensemble_seconds);
  EXPECT_EQ(session.retrain_revise_seconds, revise);
  EXPECT_EQ(session.retrain_build_seconds(), train.total_seconds() + revise);
}

TEST(DynamicDriver, EmptyStoreYieldsEmptyResult) {
  const logio::EventStore empty;
  const auto result =
      DynamicDriver(fast_config(TrainingMode::kSlidingWindow)).run(empty);
  EXPECT_TRUE(result.intervals.empty());
  EXPECT_DOUBLE_EQ(result.overall_precision(), 0.0);
}

TEST(DynamicDriver, TotalsAccumulateAcrossIntervals) {
  const auto& result = sliding_result();
  stats::ConfusionCounts manual;
  for (const auto& interval : result.intervals) manual += interval.counts;
  EXPECT_EQ(result.total_counts(), manual);
}

TEST(TrainingMode, ToString) {
  EXPECT_EQ(to_string(TrainingMode::kStatic), "static");
  EXPECT_EQ(to_string(TrainingMode::kSlidingWindow), "sliding");
  EXPECT_EQ(to_string(TrainingMode::kWholeHistory), "whole");
}

}  // namespace
}  // namespace dml::online
