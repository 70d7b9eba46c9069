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
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

ShardedEngineConfig sharded_config(std::size_t shards) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;
  config.engine.async_retrain = true;
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

TEST(ShardedEngine, HeartbeatsReleaseWarningsPastAQuietShard) {
  // Only the busiest midplane's events: they all hash to one shard, so
  // the other never receives a run.  The merger holds back every warning
  // until all watermarks pass it; only the heartbeat flush delivered to
  // the quiet shard too moves its watermark before finish().
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
  // and finish() must rethrow the failure instead of hanging.  (Guarded
  // by the gtest-level test timeout: a regression here deadlocks, which
  // the suite reports as a timeout failure.)
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "shard.worker=throw"));
  auto config = sharded_config(2);
  config.queue_capacity = 1;
  ShardedEngine engine(config, nullptr);
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, 2);
  for (const auto& event : events) engine.consume(event);
  EXPECT_THROW(engine.finish(), common::FailpointError);
  // The rethrow must not lose the accounting of what was given up.
  const auto stats = engine.stats();
  EXPECT_EQ(stats.shards_quarantined, 2u);
  EXPECT_EQ(stats.events_after_filtering + stats.records_rejected,
            events.size());
}

TEST_F(ShardedEngineFaultTest, QuarantineModeKeepsMergedStreamFlowing) {
  // One shard is killed mid-stream; with rethrow_worker_errors off the
  // run must complete normally, stay time-ordered, and report the
  // quarantine as degradation instead of throwing.
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "shard.worker=throw:after=200:max=1"));
  auto config = sharded_config(3);
  config.rethrow_worker_errors = false;
  std::vector<TimeSec> issued;
  ShardedEngine engine(config, [&](const predict::Warning& w) {
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
