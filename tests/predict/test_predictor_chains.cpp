// Chain-rule serving: the predictor side of the correlation learner —
// forward prefix matching over the dedicated chain window, scoped
// decomposition, re-arming, and serial/batch bit-identity.
#include <gtest/gtest.h>

#include "meta/knowledge_repository.hpp"
#include "predict/predictor.hpp"
#include "support/test_fixtures.hpp"

namespace dml::predict {
namespace {

constexpr CategoryId kA = 3;
constexpr CategoryId kB = 7;
constexpr CategoryId kC = 9;
constexpr CategoryId kFatal = 100;

bgl::Event ev(TimeSec t, CategoryId cat, bool fatal = false, int rack = 0,
              int midplane = 0) {
  bgl::Event e;
  e.time = t;
  e.category = cat;
  e.fatal = fatal;
  e.location = bgl::Location::midplane_scope(rack, midplane);
  return e;
}

meta::KnowledgeRepository chain_repo(std::vector<CategoryId> chain,
                                     DurationSec stage_window) {
  learners::CorrelationChainRule rule;
  rule.chain = std::move(chain);
  rule.consequent = kFatal;
  rule.confidence = 0.8;
  rule.support = 0.5;
  rule.stage_window = stage_window;
  meta::KnowledgeRepository repo;
  repo.add(learners::Rule{std::move(rule)});
  return repo;
}

TEST(PredictorChains, FiresWhenStagesArriveInOrderWithinStageWindow) {
  const auto repo = chain_repo({kA, kB}, 600);
  Predictor predictor(repo, testing::kWp);
  // Stage gap 500 > Wp (300): the chain window, not Wp, governs.
  auto w = predictor.observe(ev(1000, kA));
  EXPECT_TRUE(w.empty());
  w = predictor.observe(ev(1500, kB));
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].issued_at, 1500);
  EXPECT_EQ(w[0].deadline, 1500 + 600);  // warning horizon = stage window
  EXPECT_EQ(w[0].category, kFatal);
  EXPECT_EQ(w[0].source, learners::RuleSource::kCorrelation);
}

TEST(PredictorChains, StageGapBeyondWindowDoesNotFire) {
  const auto repo = chain_repo({kA, kB}, 600);
  Predictor predictor(repo, testing::kWp);
  predictor.observe(ev(1000, kA));
  EXPECT_TRUE(predictor.observe(ev(1601, kB)).empty());
}

TEST(PredictorChains, OutOfOrderStagesDoNotFire) {
  const auto repo = chain_repo({kA, kB}, 600);
  Predictor predictor(repo, testing::kWp);
  predictor.observe(ev(1000, kB));
  // kA is not the final stage: its arrival can never complete the chain.
  EXPECT_TRUE(predictor.observe(ev(1100, kA)).empty());
  // And a final-stage arrival with no prior kA stays silent too.
  Predictor fresh(repo, testing::kWp);
  EXPECT_TRUE(fresh.observe(ev(1000, kB)).empty());
}

TEST(PredictorChains, PrefixMatchingIsNotGreedy) {
  // The counterexample to latest-occurrence greedy matching: with
  // stage window 10, events A@85 B@92 B@100 C@101.  Greedy backward
  // would bind B to 100 and then fail to find A in [90, 100]; the
  // valid assignment A@85 -> B@92 -> C@101 must still be found.
  const auto repo = chain_repo({kA, kB, kC}, 10);
  Predictor predictor(repo, testing::kWp);
  predictor.observe(ev(85, kA));
  predictor.observe(ev(92, kB));
  predictor.observe(ev(100, kB));
  const auto w = predictor.observe(ev(101, kC));
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].issued_at, 101);
}

TEST(PredictorChains, DeduplicatesWhileActiveAndRearmsAfterFatal) {
  const auto repo = chain_repo({kA, kB}, 600);
  Predictor predictor(repo, testing::kWp);
  predictor.observe(ev(1000, kA));
  ASSERT_EQ(predictor.observe(ev(1100, kB)).size(), 1u);
  // Active warning (deadline 1700): a second completion is suppressed.
  predictor.observe(ev(1200, kA));
  EXPECT_TRUE(predictor.observe(ev(1300, kB)).empty());
  // The predicted fatal arrives: the rule re-arms.
  predictor.observe(ev(1400, kFatal, /*fatal=*/true));
  predictor.observe(ev(1450, kA));
  EXPECT_EQ(predictor.observe(ev(1500, kB)).size(), 1u);
}

TEST(PredictorChains, ScopedModeRequiresStagesOnOneMidplane) {
  const auto repo = chain_repo({kA, kB}, 600);
  PredictorOptions options;
  options.per_scope_state = true;

  Predictor split(repo, testing::kWp, options);
  split.observe(ev(1000, kA, false, 0, 0));
  // Final stage on another midplane: the cross-scope prefix must not
  // count (shard decomposition).
  EXPECT_TRUE(split.observe(ev(1100, kB, false, 1, 0)).empty());

  Predictor local(repo, testing::kWp, options);
  local.observe(ev(1000, kA, false, 1, 0));
  const auto w = local.observe(ev(1100, kB, false, 1, 0));
  ASSERT_EQ(w.size(), 1u);
  ASSERT_TRUE(w[0].location.has_value());
  EXPECT_EQ(w[0].location->rack(), 1);
}

TEST(PredictorChains, SerialAndBatchAreBitIdentical) {
  const auto repo = chain_repo({kA, kB, kC}, 400);
  std::vector<bgl::Event> events;
  // A mix of chain stages (in and out of window), unrelated categories
  // (exercising the batch skip path), and the fatal itself.
  const std::vector<std::pair<TimeSec, CategoryId>> script = {
      {100, kA},  {150, 42},    {300, kB}, {500, kC},  {600, 55},
      {700, kA},  {1300, kB},   {1400, kC}, {1500, kFatal}, {1600, kA},
      {1900, kB}, {2200, kC},
  };
  for (const auto& [t, cat] : script) {
    events.push_back(ev(t, cat, cat == kFatal));
  }

  Predictor serial(repo, testing::kWp);
  std::vector<Warning> serial_warnings;
  for (const auto& event : events) {
    serial.observe_batch({&event, 1}, serial_warnings);
  }

  Predictor batch(repo, testing::kWp);
  std::vector<Warning> batch_warnings;
  batch.observe_batch(events, batch_warnings);

  ASSERT_EQ(serial_warnings.size(), batch_warnings.size());
  for (std::size_t i = 0; i < serial_warnings.size(); ++i) {
    EXPECT_EQ(serial_warnings[i].issued_at, batch_warnings[i].issued_at);
    EXPECT_EQ(serial_warnings[i].deadline, batch_warnings[i].deadline);
    EXPECT_EQ(serial_warnings[i].category, batch_warnings[i].category);
    EXPECT_EQ(serial_warnings[i].rule_id, batch_warnings[i].rule_id);
    EXPECT_EQ(serial_warnings[i].source, batch_warnings[i].source);
  }
  EXPECT_FALSE(serial_warnings.empty());
}

}  // namespace
}  // namespace dml::predict
