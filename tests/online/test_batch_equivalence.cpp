// Batch/serial equivalence (DESIGN.md §13): the batched entry points —
// Predictor::observe_batch and ShardedEngine::consume_batch, of events
// and of raw records — must produce exactly the warning stream of the
// per-event (per-record) calls (multiset-identical for the sharded
// front-end, whose merge order is already only multiset-stable), on
// clean streams and with preprocess/feed/worker failpoints firing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "loggen/generator.hpp"
#include "logio/record_sink.hpp"
#include "online/sharded_engine.hpp"
#include "predict/predictor.hpp"
#include "support/test_fixtures.hpp"
#include "support/warning_key.hpp"

namespace dml::online {
namespace {

using testing::key_of;
using testing::WarningKey;

std::vector<WarningKey> keys(const std::vector<predict::Warning>& warnings) {
  std::vector<WarningKey> out;
  out.reserve(warnings.size());
  for (const auto& w : warnings) out.push_back(key_of(w));
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

// ---- Raw records: one consume_batch per frame == consume per record ----

/// A cached 8-week raw log of each machine.
const std::vector<bgl::RasRecord>& raw_log(bool anl) {
  static const auto make = [](loggen::MachineProfile profile,
                              std::uint64_t seed) {
    profile.weeks = 8;
    logio::VectorSink sink;
    loggen::LogGenerator(profile, seed).generate(sink);
    return sink.take();
  };
  static const std::vector<bgl::RasRecord> anl_log =
      make(loggen::MachineProfile::anl(), 1005);
  static const std::vector<bgl::RasRecord> sdsc_log =
      make(loggen::MachineProfile::sdsc(), 1204);
  return anl ? anl_log : sdsc_log;
}

/// The counted part of SessionStats (the rest are wall times).
auto counts(const SessionStats& s) {
  return std::tuple(s.records_consumed, s.events_after_filtering,
                    s.failures_seen, s.warnings_issued, s.retrainings,
                    s.history_size, s.records_rejected, s.retrain_failures,
                    s.shards_quarantined);
}

struct RawRun {
  std::vector<predict::Warning> warnings;
  SessionStats stats;
};

/// Feeds `records` through a fresh engine, one record per consume() when
/// `frame` is 0, else one consume_batch() per `frame` records; `arm`
/// (re)arms the failpoints first.
RawRun run_raw(std::span<const bgl::RasRecord> records, std::size_t shards,
               std::size_t frame, const std::function<void()>& arm) {
  arm();
  RawRun run;
  std::mutex mutex;
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine = engine_config();
  ShardedEngine engine(config, [&](const predict::Warning& w) {
    std::lock_guard lock(mutex);
    run.warnings.push_back(w);
  });
  if (frame == 0) {
    for (const auto& record : records) engine.consume(record);
  } else {
    for (std::size_t at = 0; at < records.size(); at += frame) {
      engine.consume_batch(
          records.subspan(at, std::min(frame, records.size() - at)));
    }
  }
  run.stats = engine.finish();
  return run;
}

void expect_raw_frames_match_per_record(bool anl,
                                        const std::function<void()>& arm) {
  const auto& records = raw_log(anl);
  ASSERT_GT(records.size(), 10'000u);
  for (const std::size_t shards : {1, 2, 4}) {
    const RawRun serial = run_raw(records, shards, 0, arm);
    ASSERT_GT(serial.warnings.size(), 0u);
    for (const std::size_t frame : {1, 7, 512}) {
      const RawRun batched = run_raw(records, shards, frame, arm);
      EXPECT_EQ(keys(batched.warnings), keys(serial.warnings))
          << "shards " << shards << " frame " << frame;
      EXPECT_EQ(counts(batched.stats), counts(serial.stats))
          << "shards " << shards << " frame " << frame;
    }
  }
}

TEST(BatchEquivalenceRaw, AnlRecordFramesMatchPerRecordConsume) {
  expect_raw_frames_match_per_record(/*anl=*/true, [] {});
}

TEST(BatchEquivalenceRaw, SdscRecordFramesMatchPerRecordConsume) {
  expect_raw_frames_match_per_record(/*anl=*/false, [] {});
}

TEST_F(BatchEquivalenceFaultTest, RawFramesWithPreprocessAndFeedDropsMatch) {
  // Each failpoint draws from its own stream, so preprocessing a whole
  // frame before feeding it evaluates each in the per-record order.
  const auto arm = [this] {
    rearm("preprocess.push=drop:p=0.01");
    ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
        "engine.feed=drop:p=0.05"));
  };
  const auto& records = raw_log(/*anl=*/false);
  for (const std::size_t shards : {1, 2}) {
    const RawRun serial = run_raw(records, shards, 0, arm);
    EXPECT_GT(serial.stats.records_rejected, 0u);
    for (const std::size_t frame : {7, 512}) {
      const RawRun batched = run_raw(records, shards, frame, arm);
      EXPECT_EQ(keys(batched.warnings), keys(serial.warnings))
          << "shards " << shards << " frame " << frame;
      EXPECT_EQ(counts(batched.stats), counts(serial.stats))
          << "shards " << shards << " frame " << frame;
    }
  }
}

TEST_F(BatchEquivalenceFaultTest,
       PreprocessThrowMidFrameFeedsExactlyThePrefix) {
  // A preprocess.push throw at record 300 of a 512-record frame: the
  // survivors of records 0..299 are fed, the throw propagates, and the
  // engine is where per-record consume() would have left it.
  const auto& records = raw_log(/*anl=*/true);
  const std::size_t start = 150'000;
  const std::size_t kFrame = 512;
  const std::size_t kThrowAt = 300;
  ASSERT_GT(records.size(), start + kFrame);
  const std::span<const bgl::RasRecord> all(records);

  const auto run = [&](bool batched) {
    common::FailpointRegistry::instance().reset();
    RawRun out;
    std::mutex mutex;
    ShardedEngineConfig config;
    config.shards = 2;
    config.engine = engine_config();
    ShardedEngine engine(config, [&](const predict::Warning& w) {
      std::lock_guard lock(mutex);
      out.warnings.push_back(w);
    });
    for (std::size_t at = 0; at < start; at += kFrame) {
      engine.consume_batch(all.subspan(at, std::min(kFrame, start - at)));
    }
    rearm("preprocess.push=throw:after=300:max=1");
    const auto frame = all.subspan(start, kFrame);
    if (batched) {
      EXPECT_THROW(engine.consume_batch(frame), common::FailpointError);
    } else {
      std::size_t fed = 0;
      try {
        for (const auto& record : frame) {
          engine.consume(record);
          ++fed;
        }
      } catch (const common::FailpointError&) {
      }
      EXPECT_EQ(fed, kThrowAt);
    }
    out.stats = engine.finish();
    return out;
  };
  const RawRun per_record = run(/*batched=*/false);
  const RawRun batched = run(/*batched=*/true);
  EXPECT_EQ(keys(batched.warnings), keys(per_record.warnings));
  EXPECT_EQ(counts(batched.stats), counts(per_record.stats));
  EXPECT_EQ(batched.stats.records_consumed, start + kThrowAt + 1);

  // Exactly the prefix's survivors were served.
  common::FailpointRegistry::instance().reset();
  preprocess::StreamingPipeline pipeline(engine_config().filter_threshold);
  std::uint64_t survivors = 0;
  for (const auto& record : all.first(start + kThrowAt)) {
    survivors += pipeline.push(record).has_value() ? 1 : 0;
  }
  EXPECT_EQ(batched.stats.events_after_filtering, survivors);
}

}  // namespace
}  // namespace dml::online
