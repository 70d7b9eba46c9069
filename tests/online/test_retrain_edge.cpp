// RetrainScheduler / snapshot-adoption edge cases: empty training
// windows, adoption boundaries landing exactly on an event timestamp,
// teardown with a build in flight, and build-failure degradation (the
// bounded-retry / keep-last-snapshot path).
#include <gtest/gtest.h>

#include <optional>

#include "common/failpoint.hpp"
#include "online/retraining.hpp"
#include "online/sharded_engine.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

class RetrainEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FailpointRegistry::instance().reset(); }
  void TearDown() override { common::FailpointRegistry::instance().reset(); }
};

OnlineEngineConfig edge_config() {
  OnlineEngineConfig config;
  config.retrain_interval = kSecondsPerWeek;
  return config;
}

/// Drives the scheduler through the anchoring event and returns the
/// first due boundary at or after `t`.
std::optional<TimeSec> anchor_and_advance(RetrainScheduler& scheduler,
                                          TimeSec t0, TimeSec t) {
  scheduler.boundary_due(t0);  // anchors; never returns a boundary
  return scheduler.boundary_due(t);
}

TEST_F(RetrainEdgeTest, EmptyHistoryBoundaryIsSkippedWithoutTraining) {
  RetrainScheduler scheduler(edge_config());
  const auto boundary =
      anchor_and_advance(scheduler, 0, kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  // No events observed: the zero-event window must be a no-op, not a
  // crash or an empty-rule-set adoption.
  EXPECT_EQ(scheduler.fire(*boundary), RetrainScheduler::BoundaryAction::kNone);
  EXPECT_EQ(scheduler.retrainings(), 0u);
  EXPECT_TRUE(scheduler.failures().empty());
  EXPECT_FALSE(scheduler.poll(*boundary).has_value());
}

TEST_F(RetrainEdgeTest, SlidingWindowTrimmedToZeroEventsIsSkipped) {
  auto config = edge_config();
  config.training_span = kSecondsPerWeek;
  RetrainScheduler scheduler(config);
  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  // Events only in week 0; the due boundary lands far beyond
  // origin + training_span, so the per-boundary trim leaves nothing to
  // train on — the boundary must be skipped, not trained empty.
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary =
      scheduler.boundary_due(origin + 10 * kSecondsPerWeek);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(scheduler.fire(*boundary), RetrainScheduler::BoundaryAction::kNone);
  EXPECT_EQ(scheduler.retrainings(), 0u);
}

TEST_F(RetrainEdgeTest, AsyncAdoptionLandsExactlyOnTheLagInstant) {
  auto config = edge_config();
  config.pool_builds = true;
  config.adoption_lag = 3600;
  RetrainScheduler scheduler(config);
  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary = scheduler.boundary_due(origin + kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  ASSERT_EQ(scheduler.fire(*boundary),
            RetrainScheduler::BoundaryAction::kRetrain);
  // One tick before the adoption instant: nothing, even if the build
  // already finished (event-time determinism).
  EXPECT_FALSE(scheduler.poll(*boundary + config.adoption_lag - 1));
  // Exactly at boundary + lag — e.g. an event timestamped right on the
  // adoption point — the build must be adopted, joining it if needed.
  const auto build = scheduler.poll(*boundary + config.adoption_lag);
  ASSERT_TRUE(build.has_value());
  EXPECT_EQ(build->scheduled_at, *boundary);
  EXPECT_EQ(build->activate_at, *boundary + config.adoption_lag);
  EXPECT_TRUE(scheduler.failures().empty());
}

TEST_F(RetrainEdgeTest, InlineAdoptionLandsExactlyOnItsBoundary) {
  RetrainScheduler scheduler(edge_config());
  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary = scheduler.boundary_due(origin + kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  ASSERT_EQ(scheduler.fire(*boundary),
            RetrainScheduler::BoundaryAction::kRetrain);
  // The build already ran inside fire(); it waits in the build slot and
  // the one adoption rule hands it out at its boundary, with no lag.
  EXPECT_TRUE(scheduler.build_in_flight());
  EXPECT_FALSE(scheduler.poll(*boundary - 1).has_value());
  const auto build = scheduler.poll(*boundary);
  ASSERT_TRUE(build.has_value());
  EXPECT_EQ(build->scheduled_at, *boundary);
  EXPECT_EQ(build->activate_at, build->scheduled_at);
  EXPECT_FALSE(scheduler.build_in_flight());
  // What the handed-out build cost is what the scheduler sums.
  EXPECT_EQ(scheduler.adopted_train_times().total_seconds(),
            build->train_times.total_seconds());
  EXPECT_EQ(scheduler.adopted_revise_seconds(), build->revise_seconds);
}

TEST_F(RetrainEdgeTest, InForceBuildCarriesTheAdoptedRulesAndWindow) {
  auto config = edge_config();
  config.prediction_window = 600;
  RetrainScheduler scheduler(config);
  // Before the first adoption: the empty snapshot, the configured window.
  const auto before = scheduler.in_force(1000);
  EXPECT_EQ(before.repository, meta::empty_snapshot());
  EXPECT_EQ(before.window, 600);
  EXPECT_EQ(before.scheduled_at, 1000);
  EXPECT_EQ(before.activate_at, 1000);

  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary = scheduler.boundary_due(origin + kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  ASSERT_EQ(scheduler.fire(*boundary),
            RetrainScheduler::BoundaryAction::kRetrain);
  const auto adopted = scheduler.poll(*boundary);
  ASSERT_TRUE(adopted.has_value());
  ASSERT_FALSE(adopted->repository->empty());
  // After it: that build's rules and window, at the instant asked for.
  const TimeSec later = *boundary + kSecondsPerWeek;
  const auto after = scheduler.in_force(later);
  EXPECT_EQ(after.repository, adopted->repository);
  EXPECT_EQ(after.window, adopted->window);
  EXPECT_EQ(after.scheduled_at, later);
  EXPECT_EQ(after.activate_at, later);
}

TEST_F(RetrainEdgeTest, SchedulerTearsDownCleanlyWithBuildInFlight) {
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "retrain.build=delay:ms=100"));
  auto config = edge_config();
  config.pool_builds = true;
  config.adoption_lag = kSecondsPerWeek;  // adoption far in the future
  {
    RetrainScheduler scheduler(config);
    const auto& store = testing::shared_store();
    const TimeSec origin = store.first_time();
    scheduler.boundary_due(origin);
    for (const auto& event : testing::weeks_of(store, 0, 1)) {
      scheduler.observe(event);
    }
    const auto boundary =
        scheduler.boundary_due(origin + kSecondsPerWeek + 1);
    ASSERT_TRUE(boundary.has_value());
    ASSERT_EQ(scheduler.fire(*boundary),
              RetrainScheduler::BoundaryAction::kRetrain);
    EXPECT_TRUE(scheduler.build_in_flight());
    // Scheduler destroyed here with the delayed build still running: the
    // destructor must join it, not crash or leak the pool task.
  }
  SUCCEED();
}

TEST_F(RetrainEdgeTest, EngineTearsDownCleanlyWithBuildInFlight) {
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "retrain.build=delay:ms=100"));
  ShardedEngineConfig config;
  config.shards = 2;
  config.engine.retrain_interval = kSecondsPerWeek;
  config.engine.adoption_lag = kSecondsPerWeek;
  {
    // The engine (and with it the scheduler whose build slot the pool
    // task fills, and the shards that adopt the builds it hands on) dies
    // while the build is still on the pool.  The destructor's finish()
    // must join first.
    ShardedEngine engine(config, nullptr);
    const auto& store = testing::shared_store();
    for (const auto& event : testing::weeks_of(store, 0, 2)) {
      engine.consume(event);
    }
  }
  SUCCEED();
}

TEST_F(RetrainEdgeTest, SyncBuildFailureKeepsSchedulingAndRecordsAttempts) {
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "retrain.build=throw"));
  RetrainScheduler scheduler(edge_config());
  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary = scheduler.boundary_due(origin + kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(scheduler.fire(*boundary), RetrainScheduler::BoundaryAction::kNone);
  // The failed inline build waits in the build slot like any other;
  // poll() at its boundary records the failure instead of handing it out.
  EXPECT_FALSE(scheduler.poll(*boundary).has_value());
  ASSERT_EQ(scheduler.failures().size(), 1u);
  EXPECT_EQ(scheduler.failures()[0].boundary, *boundary);
  EXPECT_EQ(scheduler.failures()[0].attempts, kMaxBuildAttempts);
  EXPECT_NE(scheduler.failures()[0].error.find("retrain.build"),
            std::string::npos);

  // Disarm and fire the next boundary: the scheduler must recover.
  common::FailpointRegistry::instance().disarm("retrain.build");
  const auto next =
      scheduler.boundary_due(origin + 2 * kSecondsPerWeek + 1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(scheduler.fire(*next), RetrainScheduler::BoundaryAction::kRetrain);
  const auto build = scheduler.poll(*next);
  ASSERT_TRUE(build.has_value());
  EXPECT_TRUE(build->repository != nullptr);
}

TEST_F(RetrainEdgeTest, CorrelationBuildFailureIsAttributedToItsStage) {
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "learners.correlation.build=throw"));
  auto config = edge_config();
  config.learner.enable_correlation = true;
  RetrainScheduler scheduler(config);
  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary = scheduler.boundary_due(origin + kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(scheduler.fire(*boundary), RetrainScheduler::BoundaryAction::kNone);
  EXPECT_FALSE(scheduler.poll(*boundary).has_value());
  ASSERT_EQ(scheduler.failures().size(), 1u);
  // The RetrainFailure names the base learner that threw, not just
  // "build" — the --profile report leans on this attribution.
  EXPECT_EQ(scheduler.failures()[0].stage, "correlation");
  EXPECT_NE(scheduler.failures()[0].error.find("correlation"),
            std::string::npos);

  // A non-learner failure (the generic retrain.build failpoint) still
  // reports the catch-all stage.
  common::FailpointRegistry::instance().reset();
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "retrain.build=throw"));
  const auto next = scheduler.boundary_due(origin + 2 * kSecondsPerWeek + 1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(scheduler.fire(*next), RetrainScheduler::BoundaryAction::kNone);
  EXPECT_FALSE(scheduler.poll(*next).has_value());
  ASSERT_EQ(scheduler.failures().size(), 2u);
  EXPECT_EQ(scheduler.failures()[1].stage, "build");

  // Disarm everything: the scheduler must still recover and the adopted
  // build must carry correlation rules (the learner itself is healthy).
  common::FailpointRegistry::instance().reset();
  const auto third = scheduler.boundary_due(origin + 3 * kSecondsPerWeek + 1);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(scheduler.fire(*third), RetrainScheduler::BoundaryAction::kRetrain);
  const auto build = scheduler.poll(*third);
  ASSERT_TRUE(build.has_value());
  ASSERT_TRUE(build->repository != nullptr);
  EXPECT_TRUE(build->failed_stage.empty());
}

TEST_F(RetrainEdgeTest, AsyncBuildFailureSurfacesAtTheAdoptionPoint) {
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "retrain.build=throw"));
  auto config = edge_config();
  config.pool_builds = true;
  config.adoption_lag = 3600;
  RetrainScheduler scheduler(config);
  const auto& store = testing::shared_store();
  const TimeSec origin = store.first_time();
  scheduler.boundary_due(origin);
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    scheduler.observe(event);
  }
  const auto boundary = scheduler.boundary_due(origin + kSecondsPerWeek + 1);
  ASSERT_TRUE(boundary.has_value());
  ASSERT_EQ(scheduler.fire(*boundary),
            RetrainScheduler::BoundaryAction::kRetrain);
  // The failure is converted to a RetrainFailure at the adoption point,
  // never thrown into the serving path.
  EXPECT_FALSE(scheduler.poll(*boundary + config.adoption_lag).has_value());
  ASSERT_EQ(scheduler.failures().size(), 1u);
  EXPECT_EQ(scheduler.failures()[0].attempts, kMaxBuildAttempts);
  // A consumed failed build leaves the scheduler free to train again.
  EXPECT_FALSE(scheduler.build_in_flight());
}

}  // namespace
}  // namespace dml::online
