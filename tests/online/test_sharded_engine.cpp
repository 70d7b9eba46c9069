#include "online/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bgl/location.hpp"
#include "common/failpoint.hpp"
#include "logio/record_sink.hpp"
#include "predict/outcome_matcher.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

ShardedEngineConfig sharded_config(std::size_t shards) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;
  return config;
}

TEST(ShardedEngine, ServesAndRetrainsAcrossShards) {
  std::mutex mutex;
  std::vector<predict::Warning> warnings;
  ShardedEngine engine(sharded_config(3), [&](const predict::Warning& w) {
    std::lock_guard lock(mutex);
    warnings.push_back(w);
  });
  EXPECT_EQ(engine.shard_count(), 3u);

  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, 12);
  for (const auto& event : events) engine.consume(event);
  const auto stats = engine.finish();

  EXPECT_EQ(stats.records_consumed, events.size());
  EXPECT_EQ(stats.events_after_filtering, events.size());
  EXPECT_EQ(stats.retrainings, 2u);  // boundaries at weeks 4 and 8
  EXPECT_GT(stats.warnings_issued, 0u);
  EXPECT_EQ(stats.warnings_issued, warnings.size());
  EXPECT_FALSE(engine.rules_snapshot()->empty());

  // Every event landed on exactly one shard, and the hash actually
  // spread this multi-rack log around.
  const auto reports = engine.shard_reports();
  std::uint64_t total = 0;
  std::size_t nonempty = 0;
  for (const auto& report : reports) {
    total += report.events;
    if (report.events > 0) ++nonempty;
  }
  EXPECT_EQ(total, events.size());
  EXPECT_GT(nonempty, 1u);
}

TEST(ShardedEngine, RetrainsOnScheduleAndWarns) {
  std::atomic<std::size_t> warnings{0};
  ShardedEngine engine(sharded_config(2),
                       [&](const predict::Warning&) { ++warnings; });
  const auto& store = testing::shared_store();
  std::uint64_t fatals = 0;
  for (const auto& event : testing::weeks_of(store, 0, 20)) {
    engine.consume(event);
    if (event.fatal) ++fatals;
  }
  const auto stats = engine.finish();
  // 20 weeks / 4-week cadence -> 4 retrainings (first at week 4).
  EXPECT_EQ(stats.retrainings, 4u);
  EXPECT_FALSE(engine.rules_snapshot()->empty());
  EXPECT_GT(warnings.load(), 50u);
  EXPECT_EQ(stats.warnings_issued, warnings.load());
  // The shards count the failures they served.
  EXPECT_EQ(stats.failures_seen, fatals);
  EXPECT_GT(stats.failures_seen, 100u);
}

TEST(ShardedEngine, StatsReportTheAdoptedBuildsPartsAndTheirSum) {
  ShardedEngine engine(sharded_config(2), nullptr);
  for (const auto& event : testing::weeks_of(testing::shared_store(), 0, 12)) {
    engine.consume(event);
  }
  const auto finished = engine.finish();
  const auto stats = engine.stats();
  // Both builds (weeks 4 and 8) were adopted and measured.
  EXPECT_EQ(stats.retrainings, 2u);
  EXPECT_GT(stats.retrain_train_times.total_seconds(), 0.0);
  EXPECT_GT(stats.retrain_revise_seconds, 0.0);
  // stats() after finish() reports the parts finish() returned...
  const meta::TrainTimes& got = stats.retrain_train_times;
  const meta::TrainTimes& want = finished.retrain_train_times;
  EXPECT_EQ(got.association_seconds, want.association_seconds);
  EXPECT_EQ(got.statistical_seconds, want.statistical_seconds);
  EXPECT_EQ(got.distribution_seconds, want.distribution_seconds);
  EXPECT_EQ(got.correlation_seconds, want.correlation_seconds);
  EXPECT_EQ(got.ensemble_seconds, want.ensemble_seconds);
  EXPECT_EQ(stats.retrain_revise_seconds, finished.retrain_revise_seconds);
  // ...and the build time is their sum.
  EXPECT_EQ(stats.retrain_build_seconds(),
            got.total_seconds() + stats.retrain_revise_seconds);
}

TEST(ShardedEngine, FirstWarningWaitsForTheAdoptionLag) {
  // The week-4 build is the first rule set; it is adopted at its boundary
  // plus adoption_lag (one prediction window when the lag is 0), and
  // nothing warns before it.
  const auto& store = testing::shared_store();
  const TimeSec boundary = store.first_time() + 4 * kSecondsPerWeek;
  const auto issue_times = [&](DurationSec adoption_lag) {
    auto config = sharded_config(2);
    config.engine.adoption_lag = adoption_lag;
    std::vector<TimeSec> issued;
    ShardedEngine engine(config, [&](const predict::Warning& w) {
      issued.push_back(w.issued_at);  // callback is serialized by the merger
    });
    for (const auto& event : testing::weeks_of(store, 0, 8)) {
      engine.consume(event);
    }
    engine.finish();
    return issued;
  };
  constexpr DurationSec kLag = 2 * kSecondsPerDay;
  const auto prompt = issue_times(0);
  const auto lagged = issue_times(kLag);
  ASSERT_FALSE(prompt.empty());
  ASSERT_FALSE(lagged.empty());
  EXPECT_GE(prompt.front(), boundary + 300);
  // The prompt adoption warns inside the lag, so the lagged run's
  // silence there is the lag's doing.
  EXPECT_LT(prompt.front(), boundary + kLag);
  EXPECT_GE(lagged.front(), boundary + kLag);
}

TEST(ShardedEngine, MergedWarningStreamIsTimeOrdered) {
  std::vector<TimeSec> issued;
  ShardedEngine engine(sharded_config(4), [&](const predict::Warning& w) {
    issued.push_back(w.issued_at);  // callback is serialized by the merger
  });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 10)) {
    engine.consume(event);
  }
  engine.finish();
  ASSERT_GT(issued.size(), 10u);
  for (std::size_t i = 1; i < issued.size(); ++i) {
    EXPECT_LE(issued[i - 1], issued[i]) << "at " << i;
  }
}

TEST(ShardedEngine, FinishIsIdempotentAndDestructorSafe) {
  std::atomic<std::size_t> warnings{0};
  auto engine = std::make_unique<ShardedEngine>(
      sharded_config(2), [&](const predict::Warning&) { ++warnings; });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 6)) {
    engine->consume(event);
  }
  const auto first = engine->finish();
  const auto second = engine->finish();
  EXPECT_EQ(first.warnings_issued, second.warnings_issued);
  EXPECT_EQ(first.warnings_issued, warnings.load());
  engine.reset();  // destructor after finish() must be a no-op
}

TEST(ShardedEngine, EmptyStreamFinishesCleanly) {
  ShardedEngine engine(sharded_config(2), nullptr);
  const auto stats = engine.finish();
  EXPECT_EQ(stats.records_consumed, 0u);
  EXPECT_EQ(stats.warnings_issued, 0u);
  EXPECT_EQ(stats.retrainings, 0u);
}

TEST(ShardedEngine, SilentBeforeFirstTraining) {
  std::atomic<std::size_t> warnings{0};
  ShardedEngine engine(sharded_config(2),
                       [&](const predict::Warning&) { ++warnings; });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 3)) {
    engine.consume(event);
  }
  const auto stats = engine.finish();
  EXPECT_EQ(warnings.load(), 0u);
  EXPECT_TRUE(engine.rules_snapshot()->empty());
  EXPECT_EQ(stats.retrainings, 0u);
}

TEST(ShardedEngine, HistoryStaysBounded) {
  auto config = sharded_config(2);
  config.engine.training_span = 2 * kSecondsPerWeek;
  ShardedEngine engine(config, nullptr);
  const auto& store = testing::shared_store();
  std::size_t max_history = 0;
  for (const auto& event : testing::weeks_of(store, 0, 20)) {
    engine.consume(event);
    max_history = std::max(max_history, engine.stats().history_size);
  }
  // Two weeks of this log is a few hundred events; 20 weeks is ~2500.
  const auto total = testing::weeks_of(store, 0, 20).size();
  EXPECT_LT(max_history, total / 2);
}

TEST(ShardedEngine, RawRecordsArePreprocessedInline) {
  auto profile = testing::tiny_profile(8);
  logio::VectorSink sink;
  loggen::LogGenerator(profile, 77).generate(sink);

  auto config = sharded_config(2);
  config.engine.retrain_interval = 2 * kSecondsPerWeek;
  std::atomic<std::size_t> warnings{0};
  ShardedEngine engine(config, [&](const predict::Warning&) { ++warnings; });
  for (const auto& record : sink.records()) engine.consume(record);
  const auto stats = engine.finish();

  EXPECT_EQ(stats.records_consumed, sink.records().size());
  // Filtering compresses the raw stream substantially.
  EXPECT_LT(stats.events_after_filtering, stats.records_consumed / 2);
  EXPECT_GT(stats.retrainings, 0u);
  EXPECT_GT(warnings.load(), 0u);
}

TEST(ShardedEngine, PinnedSnapshotSurvivesRetraining) {
  ShardedEngine engine(sharded_config(2), nullptr);
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 6)) {
    engine.consume(event);
  }
  // The week-4 build was adopted one prediction window after its
  // boundary, well inside the events fed since.
  ASSERT_EQ(engine.stats().retrainings, 1u);
  const meta::RepositorySnapshot pinned = engine.rules_snapshot();
  const std::size_t pinned_size = pinned->size();
  ASSERT_GT(pinned_size, 0u);

  for (const auto& event : testing::weeks_of(store, 6, 12)) {
    engine.consume(event);
  }
  ASSERT_GE(engine.stats().retrainings, 2u);
  // Snapshots are immutable: the pinned one is untouched by later
  // adoptions.
  EXPECT_EQ(pinned->size(), pinned_size);
  EXPECT_NE(engine.rules_snapshot().get(), pinned.get());
}

TEST(ShardedEngine, MatchesBatchAccuracyBallpark) {
  // The sharded engine over weeks 0-24 should produce warnings whose
  // quality is in the same band as the batch driver's on that span.
  std::vector<predict::Warning> warnings;
  ShardedEngine engine(sharded_config(2), [&](const predict::Warning& w) {
    warnings.push_back(w);  // callback is serialized by the merger
  });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 24)) {
    engine.consume(event);
  }
  engine.finish();

  // Evaluate warnings against the span after the first training.
  const TimeSec eval_begin = store.first_time() + 4 * kSecondsPerWeek;
  std::vector<predict::Warning> evaluated;
  for (const auto& w : warnings) {
    if (w.issued_at >= eval_begin) evaluated.push_back(w);
  }
  const auto test_events = store.between(
      eval_begin, store.first_time() + 24 * kSecondsPerWeek);
  const auto result =
      predict::evaluate_predictions(test_events, evaluated, 300);
  EXPECT_GT(stats::recall(result.overall), 0.5);
  EXPECT_GT(stats::precision(result.overall), 0.4);
}

bgl::Event synthetic_event(TimeSec time, CategoryId category, bool fatal) {
  bgl::Event event;
  event.time = time;
  event.category = category;
  event.fatal = fatal;
  event.location = bgl::Location::compute_chip(0, 0, 0, 0, 0);
  return event;
}

TEST(ShardedEngine, BoundaryTrainsOnlyOnEventsStrictlyBeforeIt) {
  // The first event at t=0 anchors the schedule; the first boundary is
  // at t=1000 and its sliding training set is [500, 1000).
  ShardedEngineConfig config;
  config.shards = 1;
  config.engine.retrain_interval = 1000;
  config.engine.initial_training_delay = 1000;
  config.engine.training_span = 500;
  //  - events {0, 1000}: the t=0 event falls out of the span, and the
  //    event at the boundary is not yet history, so nothing trains;
  {
    ShardedEngine engine(config, nullptr);
    engine.consume(synthetic_event(0, 1, false));
    engine.consume(synthetic_event(1000, 1, false));
    EXPECT_EQ(engine.stats().retrainings, 0u);
  }
  //  - events {0, 600, 1000}: t=600 is inside the span, so the boundary
  //    trains the moment the boundary-time event arrives.
  {
    ShardedEngine engine(config, nullptr);
    engine.consume(synthetic_event(0, 1, false));
    engine.consume(synthetic_event(600, 2, true));
    EXPECT_EQ(engine.stats().retrainings, 0u);
    engine.consume(synthetic_event(1000, 1, false));
    EXPECT_EQ(engine.stats().retrainings, 1u);
  }
}

TEST(ShardedEngine, HandoffsReleaseWarningsPastAQuietShard) {
  // Only the busiest midplane's events: they all hash to one shard, so
  // the other never receives an event.  The merger holds back every
  // warning until all watermarks pass it; only the message each handoff
  // pushes to the quiet shard too, with the time of the last event
  // routed, moves its watermark before finish().
  const auto events = testing::weeks_of(testing::shared_store(), 0, 12);
  std::map<bgl::Location, std::size_t> per_midplane;
  for (const auto& event : events) {
    ++per_midplane[event.location.enclosing_midplane()];
  }
  bgl::Location busiest = per_midplane.begin()->first;
  for (const auto& [midplane, count] : per_midplane) {
    if (count > per_midplane[busiest]) busiest = midplane;
  }

  std::atomic<std::size_t> warnings{0};
  const auto config = sharded_config(2);
  ShardedEngine engine(config, [&](const predict::Warning&) { ++warnings; });
  for (const auto& event : events) {
    if (event.location.enclosing_midplane() == busiest) engine.consume(event);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (warnings.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(warnings.load(), 0u);
  engine.finish();

  const auto reports = engine.shard_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(std::min(reports[0].events, reports[1].events), 0u);
}

class ShardedEngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FailpointRegistry::instance().reset(); }
  void TearDown() override { common::FailpointRegistry::instance().reset(); }
};

TEST_F(ShardedEngineFaultTest, BackpressuredProducerSurvivesWorkerThrow) {
  // Capacity-1 queues put the producer to sleep on queue.push() almost
  // immediately.  Every shard worker then throws on its first event: the
  // quarantine drain must keep consuming so the blocked producer wakes,
  // and finish() must return instead of hanging.  (Guarded by the
  // gtest-level test timeout: a regression here deadlocks, which the
  // suite reports as a timeout failure.)
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "shard.worker=throw"));
  auto config = sharded_config(2);
  config.queue_capacity = 1;
  ShardedEngine engine(config, nullptr);
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, 2);
  for (const auto& event : events) engine.consume(event);
  // Both shards are quarantined, and every event is accounted for.
  const auto stats = engine.finish();
  EXPECT_EQ(stats.shards_quarantined, 2u);
  EXPECT_EQ(stats.events_after_filtering + stats.records_rejected,
            events.size());
}

TEST_F(ShardedEngineFaultTest, QuarantineModeKeepsMergedStreamFlowing) {
  // One shard is killed mid-stream; the run must complete normally,
  // stay time-ordered, and report the quarantine as degradation.
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "shard.worker=throw:after=200:max=1"));
  std::vector<TimeSec> issued;
  ShardedEngine engine(sharded_config(3), [&](const predict::Warning& w) {
    issued.push_back(w.issued_at);
  });
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, 10);
  for (const auto& event : events) engine.consume(event);
  const auto stats = engine.finish();

  EXPECT_EQ(stats.shards_quarantined, 1u);
  EXPECT_GT(stats.records_rejected, 0u);
  EXPECT_EQ(stats.events_after_filtering + stats.records_rejected,
            events.size());
  // The surviving shards' warnings still came out, in order.
  EXPECT_GT(issued.size(), 0u);
  for (std::size_t i = 1; i < issued.size(); ++i) {
    ASSERT_LE(issued[i - 1], issued[i]) << "at " << i;
  }
  // The incident is in the degradation log, once.
  const auto log = engine.degradation_log();
  std::size_t quarantined = 0;
  for (const auto& incident : log) {
    if (incident.kind == DegradationEvent::Kind::kShardQuarantined) {
      ++quarantined;
      EXPECT_NE(incident.detail.find("shard.worker"), std::string::npos);
    }
  }
  EXPECT_EQ(quarantined, 1u);
}

TEST_F(ShardedEngineFaultTest, FeedDropFailpointIsCountedNotServed) {
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "engine.feed=drop:p=0.2"));
  ShardedEngine engine(sharded_config(2), nullptr);
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, 4);
  for (const auto& event : events) engine.consume(event);
  const auto stats = engine.finish();
  EXPECT_GT(stats.records_rejected, 0u);
  EXPECT_EQ(stats.events_after_filtering + stats.records_rejected,
            events.size());
  EXPECT_EQ(stats.records_consumed, events.size());
}

}  // namespace
}  // namespace dml::online
