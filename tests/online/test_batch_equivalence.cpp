// Batch/serial equivalence (DESIGN.md §13): the batched entry points —
// Predictor::observe_batch and ShardedEngine::consume_batch — must
// produce exactly the warning stream of the per-event calls
// (multiset-identical for the sharded front-end, whose merge order is
// already only multiset-stable), on clean streams and with feed/worker
// failpoints firing.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "loggen/generator.hpp"
#include "online/sharded_engine.hpp"
#include "predict/predictor.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

using WarningKey = std::tuple<TimeSec, TimeSec, std::optional<CategoryId>,
                              std::optional<bgl::Location>, std::uint64_t,
                              int>;

WarningKey key(const predict::Warning& w) {
  return {w.issued_at, w.deadline,           w.category,
          w.location,  w.rule_id,            static_cast<int>(w.source)};
}

std::vector<WarningKey> keys(const std::vector<predict::Warning>& warnings) {
  std::vector<WarningKey> out;
  out.reserve(warnings.size());
  for (const auto& w : warnings) out.push_back(key(w));
  return out;
}

/// Splits [0, n) into deterministic awkward chunk lengths (including
/// singletons and empty batches) so batch boundaries land everywhere.
std::vector<std::size_t> chunk_lengths(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> lengths;
  std::size_t done = 0;
  while (done < n) {
    std::size_t len = rng.next_u64() % 97;  // 0..96: empties included
    len = std::min(len, n - done);
    lengths.push_back(len);
    done += len;
  }
  return lengths;
}

/// An 8-week ANL-flavoured unique-event window (the SDSC side uses the
/// cached shared_store()).
const std::vector<bgl::Event>& anl_events() {
  static const std::vector<bgl::Event> events = [] {
    auto profile = loggen::MachineProfile::anl();
    profile.weeks = 8;
    profile.reconfig_week = std::nullopt;
    profile.scale = 0.5;
    return loggen::LogGenerator(profile, 11).generate_unique_events();
  }();
  return events;
}

OnlineEngineConfig engine_config() {
  OnlineEngineConfig config;
  config.retrain_interval = 2 * kSecondsPerWeek;
  config.training_span = 4 * kSecondsPerWeek;
  return config;
}

std::vector<predict::Warning> run_sharded(std::span<const bgl::Event> events,
                                          std::size_t shards, bool batched) {
  std::mutex mutex;
  std::vector<predict::Warning> warnings;
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine = engine_config();
  ShardedEngine engine(config, [&](const predict::Warning& w) {
    std::lock_guard lock(mutex);
    warnings.push_back(w);
  });
  if (batched) {
    std::size_t offset = 0;
    for (const std::size_t len : chunk_lengths(events.size(), 37)) {
      engine.consume_batch(events.subspan(offset, len));
      offset += len;
    }
  } else {
    for (const auto& event : events) engine.consume(event);
  }
  engine.finish();
  return warnings;
}

TEST(BatchEquivalence, PredictorObserveBatchMatchesSerial) {
  const auto& repo = testing::shared_repository();
  const auto events = testing::weeks_of(testing::shared_store(), 26, 30);
  ASSERT_FALSE(events.empty());

  predict::Predictor serial(repo, testing::kWp);
  std::vector<predict::Warning> serial_out;
  for (const auto& event : events) {
    serial.observe_batch({&event, 1}, serial_out);
  }

  predict::Predictor batched(repo, testing::kWp);
  std::vector<predict::Warning> batch_out;
  std::size_t offset = 0;
  for (const std::size_t len : chunk_lengths(events.size(), 29)) {
    batched.observe_batch(events.subspan(offset, len), batch_out);
    offset += len;
  }

  ASSERT_GT(serial_out.size(), 0u);
  EXPECT_EQ(keys(serial_out), keys(batch_out));
}

void expect_sharded_batch_matches_serial(std::span<const bgl::Event> events) {
  auto serial = keys(run_sharded(events, 3, /*batched=*/false));
  auto batched = keys(run_sharded(events, 3, /*batched=*/true));
  ASSERT_GT(serial.size(), 0u);
  std::sort(serial.begin(), serial.end());
  std::sort(batched.begin(), batched.end());
  EXPECT_EQ(serial, batched);
}

TEST(BatchEquivalence, ShardedFeedBatchMatchesSerialMultiset) {
  expect_sharded_batch_matches_serial(
      testing::weeks_of(testing::shared_store(), 0, 8));
}

TEST(BatchEquivalence, ShardedFeedBatchMatchesSerialMultisetAnl) {
  expect_sharded_batch_matches_serial(anl_events());
}

class BatchEquivalenceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FailpointRegistry::instance().reset(); }
  void TearDown() override { common::FailpointRegistry::instance().reset(); }

  /// Re-arms `assignment` from a fixed seed so the serial and batched
  /// runs evaluate identical failpoint decision streams.
  void rearm(const char* assignment) {
    auto& registry = common::FailpointRegistry::instance();
    registry.reset();
    registry.reseed(testing::fuzz_seed(67));
    ASSERT_TRUE(registry.arm_from_string(assignment));
  }
};

TEST_F(BatchEquivalenceFaultTest, EngineFeedDropsMatchSerial) {
  // engine.feed fires on the producer thread in both paths; feed_batch
  // must evaluate it once per event, in order, so the same events drop.
  const auto events = testing::weeks_of(testing::shared_store(), 0, 8);

  rearm("engine.feed=drop:p=0.02");
  std::vector<predict::Warning> serial;
  {
    ShardedEngineConfig config;
    config.shards = 2;
    config.engine = engine_config();
      std::mutex mutex;
    ShardedEngine engine(config, [&](const predict::Warning& w) {
      std::lock_guard lock(mutex);
      serial.push_back(w);
    });
    for (const auto& event : events) engine.consume(event);
    const auto stats = engine.finish();
    EXPECT_GT(stats.records_rejected, 0u);
  }

  rearm("engine.feed=drop:p=0.02");
  std::vector<predict::Warning> batched;
  {
    ShardedEngineConfig config;
    config.shards = 2;
    config.engine = engine_config();
      std::mutex mutex;
    ShardedEngine engine(config, [&](const predict::Warning& w) {
      std::lock_guard lock(mutex);
      batched.push_back(w);
    });
    std::size_t offset = 0;
    for (const std::size_t len : chunk_lengths(events.size(), 41)) {
      engine.consume_batch(events.subspan(offset, len));
      offset += len;
    }
    engine.finish();
  }

  auto lhs = keys(serial);
  auto rhs = keys(batched);
  ASSERT_GT(lhs.size(), 0u);
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);
}

TEST_F(BatchEquivalenceFaultTest, SingleShardWorkerDropsMatchSerial) {
  // With one shard the worker's failpoint stream is single-threaded, so
  // the full ordered warning stream must match — this pins a run of many
  // events to the exact per-event failpoint/serve/counter sequence of the
  // one-event runs consume() hands over.
  const auto events = testing::weeks_of(testing::shared_store(), 0, 8);

  const auto run = [&](bool batch_mode) {
    rearm("shard.worker=drop:p=0.02");
    std::vector<predict::Warning> warnings;
    ShardedEngineConfig config;
    config.shards = 1;
    config.engine = engine_config();
      ShardedEngine engine(config, [&](const predict::Warning& w) {
      warnings.push_back(w);  // single shard: merger calls are serial
    });
    if (batch_mode) {
      std::size_t offset = 0;
      for (const std::size_t len : chunk_lengths(events.size(), 43)) {
        engine.consume_batch(events.subspan(offset, len));
        offset += len;
      }
    } else {
      for (const auto& event : events) engine.consume(event);
    }
    const auto stats = engine.finish();
    EXPECT_GT(stats.records_rejected, 0u);
    return warnings;
  };

  const auto serial = run(/*batch_mode=*/false);
  const auto batched = run(/*batch_mode=*/true);
  ASSERT_GT(serial.size(), 0u);
  EXPECT_EQ(keys(serial), keys(batched));
}

TEST_F(BatchEquivalenceFaultTest, MidBatchQuarantineDrainsRemainder) {
  // A worker throw inside a batched run must quarantine at the faulting
  // event and drain the rest of the stream — same accounting as the
  // serial path: total = served + rejected.
  const auto events = testing::weeks_of(testing::shared_store(), 0, 4);
  rearm("shard.worker=throw:after=100:max=1");
  ShardedEngineConfig config;
  config.shards = 1;
  config.engine = engine_config();
  ShardedEngine engine(config, nullptr);
  std::size_t offset = 0;
  for (const std::size_t len : chunk_lengths(events.size(), 47)) {
    engine.consume_batch(events.subspan(offset, len));
    offset += len;
  }
  const auto stats = engine.finish();
  EXPECT_EQ(stats.shards_quarantined, 1u);
  EXPECT_GT(stats.records_rejected, 0u);
  EXPECT_EQ(stats.records_consumed, events.size());
  const auto reports = engine.shard_reports();
  ASSERT_EQ(reports.size(), 1u);
  // Everything after the 100 served events was drained, not lost.
  EXPECT_EQ(reports[0].events + stats.records_rejected, events.size());
}

}  // namespace
}  // namespace dml::online
