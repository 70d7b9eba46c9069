// The sharded serving core's headline invariant: partitioning the event
// stream by midplane across N shards changes *scheduling*, never
// *semantics*.  A 4-shard replay must produce exactly the warning
// multiset of a 1-shard replay — and therefore identical confusion
// counts — because per-midplane predictor state decomposes cleanly and
// ticks fire on the shared absolute grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "loggen/generator.hpp"
#include "online/sharded_engine.hpp"
#include "predict/outcome_matcher.hpp"
#include "support/test_fixtures.hpp"
#include "support/warning_key.hpp"

namespace dml::online {
namespace {

using testing::key_of;
using testing::WarningKey;

struct Replay {
  std::vector<predict::Warning> warnings;
  stats::ConfusionCounts counts;
  ShardedEngine::SessionStats stats;
};

Replay replay(std::size_t shards, int weeks,
              TrainingMode mode = TrainingMode::kSlidingWindow) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;
  config.engine.mode = mode;

  Replay result;
  std::mutex mutex;
  ShardedEngine engine(config, [&](const predict::Warning& w) {
    std::lock_guard lock(mutex);
    result.warnings.push_back(w);
  });
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, weeks);
  for (const auto& event : events) engine.consume(event);
  result.stats = engine.finish();

  const TimeSec eval_begin = store.first_time() + 4 * kSecondsPerWeek;
  std::vector<predict::Warning> scored;
  for (const auto& w : result.warnings) {
    if (w.issued_at >= eval_begin) scored.push_back(w);
  }
  const auto test_events =
      store.between(eval_begin, store.first_time() +
                                    static_cast<TimeSec>(weeks) *
                                        kSecondsPerWeek);
  result.counts =
      predict::evaluate_predictions(test_events, scored, 300).overall;
  return result;
}

void expect_same_warnings(const Replay& one, const Replay& four) {
  EXPECT_EQ(one.stats.retrainings, four.stats.retrainings);
  EXPECT_EQ(one.stats.events_after_filtering,
            four.stats.events_after_filtering);

  // Identical warning multisets...
  std::vector<WarningKey> a, b;
  for (const auto& w : one.warnings) a.push_back(key_of(w));
  for (const auto& w : four.warnings) b.push_back(key_of(w));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // ...and, since scoring is a function of the sorted stream, identical
  // confusion counts.
  EXPECT_EQ(one.counts.true_positives, four.counts.true_positives);
  EXPECT_EQ(one.counts.false_positives, four.counts.false_positives);
  EXPECT_EQ(one.counts.false_negatives, four.counts.false_negatives);
}

TEST(ShardedDeterminism, FourShardsMatchOneShard) {
  constexpr int kWeeks = 16;
  const auto one = replay(1, kWeeks);
  const auto four = replay(4, kWeeks);
  ASSERT_GT(one.warnings.size(), 20u);
  expect_same_warnings(one, four);
}

TEST(ShardedDeterminism, StaticModeFourShardsMatchOneShard) {
  // Static mode trains once, at week 4, and every later boundary (weeks
  // 8, 12 and 16) serves the same rules from fresh predictors.
  constexpr int kWeeks = 20;
  const auto one = replay(1, kWeeks, TrainingMode::kStatic);
  const auto four = replay(4, kWeeks, TrainingMode::kStatic);
  ASSERT_GT(one.warnings.size(), 20u);
  EXPECT_EQ(one.stats.retrainings, 1u);
  expect_same_warnings(one, four);
}

TEST(ShardedDeterminism, TwoShardReplayIsReproducible) {
  constexpr int kWeeks = 12;
  const auto first = replay(2, kWeeks);
  const auto second = replay(2, kWeeks);
  ASSERT_EQ(first.warnings.size(), second.warnings.size());
  for (std::size_t i = 0; i < first.warnings.size(); ++i) {
    EXPECT_EQ(key_of(first.warnings[i]), key_of(second.warnings[i]))
        << "at " << i;
  }
}

// Shard count, queue capacity and handoff size decide only when a
// warning is released, never which warnings come out or in what order:
// every cell of the grid must emit exactly the sequence of one shard fed
// event by event.  Each consume call is one handoff, and every handoff
// advances every shard to the last event routed, so the handoff size
// also sets how often a shard without events advances: at every event
// for consume(), a few times over the whole input at 4096.

/// 16 weeks of ANL unique events, keyed by gap scale: as generated (1),
/// and with every inter-event gap multiplied by 10, so that consecutive
/// events cross many tick instants.
const std::vector<bgl::Event>& anl_events(TimeSec gap_scale) {
  static const auto inputs = [] {
    loggen::MachineProfile profile = loggen::MachineProfile::anl();
    profile.weeks = 16;
    std::map<TimeSec, std::vector<bgl::Event>> by_scale;
    by_scale[1] =
        loggen::LogGenerator(profile, testing::kSeed).generate_unique_events();
    auto& stretched = by_scale[10] = by_scale[1];
    const TimeSec origin = stretched.front().time;
    for (auto& event : stretched) {
      event.time = origin + (event.time - origin) * 10;
    }
    return by_scale;
  }();
  return inputs.at(gap_scale);
}

using CellParam = std::tuple<TimeSec /*gap_scale*/, std::size_t /*shards*/,
                             std::size_t /*handoff*/,
                             std::size_t /*capacity*/>;

std::vector<WarningKey> merged_sequence(const CellParam& cell) {
  const auto [gap_scale, shards, handoff, capacity] = cell;
  ShardedEngineConfig config;
  config.shards = shards;
  config.queue_capacity = capacity;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;

  std::vector<WarningKey> sequence;
  ShardedEngine engine(config, [&](const predict::Warning& w) {
    sequence.push_back(key_of(w));  // callback is serialized by the merger
  });
  const std::span<const bgl::Event> events = anl_events(gap_scale);
  if (handoff == 1) {
    for (const auto& event : events) engine.consume(event);
  } else {
    for (std::size_t offset = 0; offset < events.size(); offset += handoff) {
      const std::size_t n = std::min(handoff, events.size() - offset);
      engine.consume_batch(events.subspan(offset, n));
    }
  }
  engine.finish();
  return sequence;
}

/// The reference cell of each input: one shard, consume(), capacity
/// 4096.
const std::vector<WarningKey>& reference_sequence(TimeSec gap_scale) {
  static std::map<TimeSec, std::vector<WarningKey>> cache;
  auto [it, inserted] = cache.try_emplace(gap_scale);
  if (inserted) it->second = merged_sequence({gap_scale, 1, 1, 4096});
  return it->second;
}

class ShardedDeterminismGrid : public ::testing::TestWithParam<CellParam> {};

TEST_P(ShardedDeterminismGrid, MergedSequenceMatchesReferenceCell) {
  const auto& expected = reference_sequence(std::get<0>(GetParam()));
  ASSERT_GT(expected.size(), 20u);
  const auto actual = merged_sequence(GetParam());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "at " << i;
  }
}

std::string cell_name(const ::testing::TestParamInfo<CellParam>& info) {
  const auto [gap_scale, shards, handoff, capacity] = info.param;
  std::string name = "gap" + std::to_string(gap_scale);
  name += "_shards" + std::to_string(shards);
  name += "_handoff" + std::to_string(handoff);
  name += "_capacity" + std::to_string(capacity);
  return name;
}

constexpr TimeSec kGapScales[] = {1, 10};
constexpr std::size_t kShardCounts[] = {1, 2, 4};
/// Events per consume call; 1 is consume().
constexpr std::size_t kHandoffs[] = {1, 2, 7, 64, 512, 4096};
constexpr std::size_t kCapacities[] = {4, 4096};

INSTANTIATE_TEST_SUITE_P(
    HandoffQueue, ShardedDeterminismGrid,
    ::testing::Combine(::testing::ValuesIn(kGapScales),    // input
                       ::testing::ValuesIn(kShardCounts),  // shards
                       ::testing::ValuesIn(kHandoffs),     // handoff size
                       ::testing::ValuesIn(kCapacities)),  // queue_capacity
    cell_name);

}  // namespace
}  // namespace dml::online
