// Chaos tier: stress the 4-shard serving core over generated BG/L logs
// while failpoints fire, and assert the degradation contract:
//
//   - no deadlock (the suite-level timeout converts a hang into a
//     failure),
//   - the merged warning stream stays time-ordered under every fault,
//   - delay-only faults change timing, never output: warnings are
//     exactly equal to the fault-free run,
//   - drop faults diverge only by the counted rejected units,
//   - a retrain failure mid-stream provably never stops warning
//     emission: serving continues from the last adopted snapshot and
//     the failure is recorded, never thrown.
//
// Runs under `ctest -C chaos -L chaos` (excluded from tier-1).  Seeded:
// DMLFP_TEST_SEED=<n> replays an iteration; see README for the 50-seed
// acceptance sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/failpoint.hpp"
#include "logio/record_sink.hpp"
#include "logio/text_format.hpp"
#include "online/sharded_engine.hpp"
#include "support/test_fixtures.hpp"
#include "support/warning_key.hpp"

namespace dml::online {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FailpointRegistry::instance().reset(); }
  void TearDown() override { common::FailpointRegistry::instance().reset(); }
};

using testing::key_of;
using testing::WarningKey;

ShardedEngineConfig chaos_config(std::size_t shards = 4) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;
  return config;
}

/// Replays `store` through a fresh engine; returns the merged warning
/// stream (asserting it is time-ordered) and the final stats.
std::vector<WarningKey> replay(const logio::EventStore& store,
                               ShardedEngineConfig config,
                               ShardedEngine::SessionStats* stats_out =
                                   nullptr,
                               std::vector<DegradationEvent>* log_out =
                                   nullptr) {
  std::vector<WarningKey> warnings;
  TimeSec last_issued = 0;
  ShardedEngine engine(config, [&](const predict::Warning& w) {
    EXPECT_GE(w.issued_at, last_issued) << "merged stream out of order";
    last_issued = w.issued_at;
    warnings.push_back(key_of(w));
  });
  for (const auto& event : store.all()) engine.consume(event);
  const auto stats = engine.finish();
  if (stats_out) *stats_out = stats;
  if (log_out) *log_out = engine.degradation_log();
  return warnings;
}

/// A fresh 16-week log derived from this iteration's seed, so every
/// chaos iteration stresses a different stream.
logio::EventStore chaos_store(std::uint64_t seed) {
  return logio::EventStore(
      loggen::LogGenerator(testing::medium_profile(16), seed)
          .generate_unique_events());
}

TEST_F(ChaosTest, DelayOnlyFaultsLeaveTheWarningStreamExactlyEqual) {
  const auto seed = testing::fuzz_seed(1);
  const auto store = chaos_store(seed);
  const auto baseline = replay(store, chaos_config());
  ASSERT_GT(baseline.size(), 0u);

  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  ASSERT_TRUE(registry.arm_from_string("shard.worker=delay:ms=1:p=0.002"));
  ASSERT_TRUE(registry.arm_from_string("serving.observe=delay:ms=1:p=0.002"));
  ASSERT_TRUE(registry.arm_from_string("retrain.build=delay:ms=50"));

  ShardedEngine::SessionStats stats;
  const auto delayed = replay(store, chaos_config(), &stats);
  // Delay faults perturb wall-clock interleavings only; event-time
  // output must be bit-identical.
  EXPECT_EQ(delayed, baseline);
  EXPECT_EQ(stats.records_rejected, 0u);
  EXPECT_EQ(stats.retrain_failures, 0u);
  EXPECT_EQ(stats.shards_quarantined, 0u);
  // The faults did actually fire.
  EXPECT_GT(registry.stats("retrain.build").triggers, 0u);
}

TEST_F(ChaosTest, DropFaultsDivergeOnlyByTheCountedRejectedUnits) {
  const auto seed = testing::fuzz_seed(2);
  const auto store = chaos_store(seed);
  const auto total = store.all().size();

  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  ASSERT_TRUE(registry.arm_from_string("engine.feed=drop:p=0.01"));
  ASSERT_TRUE(registry.arm_from_string("shard.worker=drop:p=0.005"));

  ShardedEngine::SessionStats stats;
  std::vector<DegradationEvent> log;
  const auto warnings = replay(store, chaos_config(), &stats, &log);
  (void)warnings;

  // Every lost unit is accounted for: the divergence budget equals the
  // injector's own trigger counts, exactly.
  const auto feed_triggers = registry.stats("engine.feed").triggers;
  const auto worker_triggers = registry.stats("shard.worker").triggers;
  EXPECT_GT(feed_triggers + worker_triggers, 0u);
  EXPECT_EQ(stats.records_rejected, feed_triggers + worker_triggers);
  EXPECT_EQ(stats.events_after_filtering + stats.records_rejected, total);
  // The counted skips are surfaced in the degradation log.
  bool skips_logged = false;
  for (const auto& incident : log) {
    if (incident.kind == DegradationEvent::Kind::kRecordsSkipped &&
        incident.count == stats.records_rejected) {
      skips_logged = true;
    }
  }
  EXPECT_TRUE(skips_logged);
}

TEST_F(ChaosTest, RetrainFailureMidStreamNeverStopsWarningEmission) {
  const auto seed = testing::fuzz_seed(3);
  const auto store = chaos_store(seed);

  // Reference run: exactly one training (the week-4 boundary), no
  // faults, no later retrainings.
  auto single_train = chaos_config();
  single_train.engine.initial_training_delay = 4 * kSecondsPerWeek;
  single_train.engine.retrain_interval = 100 * kSecondsPerWeek;
  const auto reference = replay(store, single_train);
  ASSERT_GT(reference.size(), 0u);

  // Fault run: normal 4-week cadence, but every build after the first
  // one fails all its attempts (first evaluation passes, the rest
  // throw).  An abandoned boundary must be a serving no-op, so the
  // warning stream must equal the single-training reference exactly —
  // proof that warnings keep flowing from the last adopted snapshot.
  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  ASSERT_TRUE(
      registry.arm_from_string("retrain.build=throw:after=1"));

  ShardedEngine::SessionStats stats;
  std::vector<DegradationEvent> log;
  const auto degraded = replay(store, chaos_config(), &stats, &log);

  EXPECT_EQ(degraded, reference);
  // 16 weeks at a 4-week cadence: boundaries at 4 (adopted), 8 and 12
  // (abandoned).  Each abandoned boundary burned all build attempts.
  EXPECT_EQ(stats.retrain_failures, 2u);
  std::size_t failures_logged = 0;
  for (const auto& incident : log) {
    if (incident.kind == DegradationEvent::Kind::kRetrainFailure) {
      ++failures_logged;
      EXPECT_EQ(incident.count, kMaxBuildAttempts);
      EXPECT_NE(incident.detail.find("retrain.build"), std::string::npos);
    }
  }
  EXPECT_EQ(failures_logged, 2u);
  // Warnings were still issued after the first abandoned boundary.
  const TimeSec second_boundary =
      store.first_time() + 8 * kSecondsPerWeek;
  const auto after = std::count_if(
      degraded.begin(), degraded.end(), [&](const WarningKey& w) {
        return std::get<0>(w) > second_boundary;
      });
  EXPECT_GT(after, 0);
}

TEST_F(ChaosTest, CorrelationBuildFailureKeepsServingTheLastSnapshot) {
  const auto seed = testing::fuzz_seed(6);
  const auto store = chaos_store(seed);

  // Reference: four-learner engine, exactly one training at week 4.
  auto single_train = chaos_config();
  single_train.engine.learner.enable_correlation = true;
  single_train.engine.initial_training_delay = 4 * kSecondsPerWeek;
  single_train.engine.retrain_interval = 100 * kSecondsPerWeek;
  const auto reference = replay(store, single_train);
  ASSERT_GT(reference.size(), 0u);

  // Fault run: every build after the first loses its correlation
  // learner.  The degradation contract is the same as for a whole-build
  // failure — an abandoned boundary is a serving no-op, so warnings
  // (chain warnings included) keep flowing from the last adopted
  // snapshot and every incident is attributed to the learner stage.
  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  ASSERT_TRUE(registry.arm_from_string(
      "learners.correlation.build=throw:after=1"));

  auto config = chaos_config();
  config.engine.learner.enable_correlation = true;
  ShardedEngine::SessionStats stats;
  std::vector<DegradationEvent> log;
  const auto degraded = replay(store, config, &stats, &log);

  EXPECT_EQ(degraded, reference);
  EXPECT_EQ(stats.retrain_failures, 2u);  // boundaries at 8 and 12 weeks
  std::size_t failures_logged = 0;
  for (const auto& incident : log) {
    if (incident.kind == DegradationEvent::Kind::kRetrainFailure) {
      ++failures_logged;
      EXPECT_NE(incident.detail.find("correlation"), std::string::npos);
    }
  }
  EXPECT_EQ(failures_logged, 2u);
}

TEST_F(ChaosTest, QuarantinedShardNeverStallsTheMergedStream) {
  const auto seed = testing::fuzz_seed(4);
  const auto store = chaos_store(seed);

  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  // Kill one worker a few hundred events in; the run must still drain
  // to completion with the stream ordered (checked inside replay()).
  ASSERT_TRUE(registry.arm_from_string("shard.worker=throw:after=300:max=1"));

  ShardedEngine::SessionStats stats;
  std::vector<DegradationEvent> log;
  const auto warnings = replay(store, chaos_config(), &stats, &log);

  EXPECT_EQ(stats.shards_quarantined, 1u);
  EXPECT_EQ(stats.events_after_filtering + stats.records_rejected,
            store.all().size());
  EXPECT_GT(warnings.size(), 0u);
  std::size_t quarantines_logged = 0;
  for (const auto& incident : log) {
    if (incident.kind == DegradationEvent::Kind::kShardQuarantined) {
      ++quarantines_logged;
    }
  }
  EXPECT_EQ(quarantines_logged, 1u);
}

TEST_F(ChaosTest, CorruptedLogLinesAreSkippedCountedAndServed) {
  const auto seed = testing::fuzz_seed(5);

  // Serialize a generated log to text, then replay it through the
  // lenient reader with the parse failpoint corrupting ~1% of lines.
  std::stringstream text;
  logio::StreamSink sink(text, "CHAOS");
  loggen::LogGenerator(testing::medium_profile(12), seed).generate(sink);

  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  ASSERT_TRUE(registry.arm_from_string("logio.parse=corrupt:p=0.01"));

  std::size_t warnings = 0;
  auto config = chaos_config();
  ShardedEngine engine(config,
                       [&](const predict::Warning&) { ++warnings; });
  logio::RecordReader reader(text, logio::RecordReader::OnError::kSkip);
  while (auto record = reader.next()) engine.consume(*record);
  const auto stats = engine.finish();

  const auto& read_stats = reader.read_stats();
  EXPECT_GT(read_stats.skipped, 0u);
  EXPECT_EQ(read_stats.skipped,
            registry.stats("logio.parse").triggers);
  EXPECT_EQ(read_stats.parsed, stats.records_consumed);
  EXPECT_EQ(read_stats.parsed + read_stats.skipped, read_stats.lines);
  EXPECT_FALSE(read_stats.diagnostics.empty());
  EXPECT_GT(warnings, 0u);
}

}  // namespace
}  // namespace dml::online
