// Edge cases of the event-driven predictor.
#include <gtest/gtest.h>

#include <limits>

#include "predict/outcome_matcher.hpp"
#include "predict/predictor.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::predict {
namespace {

bgl::Event ev(TimeSec t, CategoryId cat, bool fatal) {
  bgl::Event e;
  e.time = t;
  e.category = cat;
  e.fatal = fatal;
  return e;
}

meta::KnowledgeRepository ar_repo(std::vector<CategoryId> antecedent,
                                  CategoryId consequent) {
  meta::KnowledgeRepository repo;
  learners::AssociationRule rule;
  rule.antecedent = std::move(antecedent);
  rule.consequent = consequent;
  repo.add(learners::Rule{rule});
  return repo;
}

TEST(PredictorEdge, SimultaneousEventsShareTheWindow) {
  const auto repo = ar_repo({1, 2}, 50);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 1, false));
  // Same second: both items present -> fires.
  EXPECT_EQ(predictor.observe(ev(1000, 2, false)).size(), 1u);
}

TEST(PredictorEdge, AntecedentItemRepeatedInOneSecond) {
  const auto repo = ar_repo({1}, 50);
  PredictorOptions options;
  options.deduplicate_warnings = false;
  Predictor predictor(repo, 300, options);
  // Without dedup, every occurrence triggers.
  EXPECT_EQ(predictor.observe(ev(1000, 1, false)).size(), 1u);
  EXPECT_EQ(predictor.observe(ev(1000, 1, false)).size(), 1u);
}

TEST(PredictorEdge, TinyWindowExpiresWithinSeconds) {
  const auto repo = ar_repo({1, 2}, 50);
  Predictor predictor(repo, 1);
  predictor.observe(ev(1000, 1, false));
  EXPECT_TRUE(predictor.observe(ev(1002, 2, false)).empty());
}

TEST(PredictorEdge, HugeStatisticalKNeverFires) {
  meta::KnowledgeRepository repo;
  repo.add(learners::Rule{
      learners::StatisticalRule{1000, 0.9}});
  Predictor predictor(repo, 300);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(predictor.observe(ev(1000 + i, 50, true)).empty());
  }
}

TEST(PredictorEdge, AllRuleTypesCoexist) {
  // One rule of every family in one repository; a crafted sequence
  // triggers each kind.
  const auto& store = testing::shared_store();
  meta::MetaLearnerConfig config;
  config.enable_correlation = true;
  meta::MetaLearner learner{config};
  const auto repo =
      learner.learn(testing::weeks_of(store, 0, 26), testing::kWp);
  for (const auto source : learners::kRuleSources) {
    ASSERT_GE(repo.count_by_source(source), 1u) << to_string(source);
  }

  Predictor predictor(repo, testing::kWp);
  const auto warnings =
      predictor.run(testing::weeks_of(store, 26, 30), testing::kWp);
  // Multiple rule families should have spoken over four weeks.
  bool seen[learners::kNumRuleSources] = {};
  for (const auto& w : warnings) {
    seen[static_cast<std::size_t>(w.source)] = true;
  }
  int families = 0;
  for (bool s : seen) families += s ? 1 : 0;
  EXPECT_GE(families, 3);
}

TEST(PredictorEdge, TickBeforeAnyEventIsSafe) {
  const auto repo = ar_repo({1}, 50);
  Predictor predictor(repo, 300);
  EXPECT_TRUE(predictor.tick(0).empty());
  EXPECT_TRUE(predictor.tick(1000000).empty());
}

TEST(PredictorEdge, ExtremeDistributionTriggersMatchTheReference) {
  // A rule file may carry any trigger.  The PD quiet horizon saturates
  // instead of overflowing: a trigger no elapsed time reaches never
  // fires, and one every elapsed time passes fires whenever its dedup
  // block lapses, as the reference (which ticks every instant) has it.
  meta::KnowledgeRepository repo;
  for (const DurationSec trigger : {std::numeric_limits<DurationSec>::max(),
                                    std::numeric_limits<DurationSec>::min()}) {
    learners::DistributionRule rule;
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::Exponential{1.0 / 10000.0})};
    rule.cdf_threshold = 0.6;
    rule.elapsed_trigger = trigger;
    repo.add(learners::Rule{rule});
  }
  const std::vector<bgl::Event> events = {
      ev(0, 50, true), ev(100, 7, false), ev(5000, 7, false),
      ev(9000, 50, true), ev(20000, 7, false), ev(90000, 7, false)};
  for (const bool per_scope : {false, true}) {
    PredictorOptions options;
    options.per_scope_state = per_scope;
    Predictor predictor(repo, 300, options);
    reference::ReferencePredictor reference(repo, 300, options);
    const auto got = predictor.run(events, 300);
    const auto want = reference.run(events, 300);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size()) << per_scope;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].issued_at, want[i].issued_at) << per_scope << " #" << i;
      EXPECT_EQ(got[i].deadline, want[i].deadline) << per_scope << " #" << i;
      EXPECT_EQ(got[i].rule_id, want[i].rule_id) << per_scope << " #" << i;
    }
  }
}

TEST(PredictorEdge, RunWithoutTicksEqualsManualObserveLoop) {
  const auto& store = testing::shared_store();
  const auto& repo = testing::shared_repository();
  const auto events = testing::weeks_of(store, 26, 28);

  Predictor a(repo, testing::kWp);
  const auto via_run = a.run(events, 0);

  Predictor b(repo, testing::kWp);
  std::vector<Warning> manual;
  for (const auto& event : events) {
    auto warnings = b.observe(event);
    manual.insert(manual.end(), warnings.begin(), warnings.end());
  }
  ASSERT_EQ(via_run.size(), manual.size());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(via_run[i].issued_at, manual[i].issued_at);
    EXPECT_EQ(via_run[i].rule_id, manual[i].rule_id);
  }
}

TEST(PredictorEdge, DedupOffProducesSupersetOfWarnings) {
  const auto& store = testing::shared_store();
  const auto& repo = testing::shared_repository();
  const auto events = testing::weeks_of(store, 26, 28);

  PredictorOptions dedup_on;
  PredictorOptions dedup_off;
  dedup_off.deduplicate_warnings = false;
  const auto with = Predictor(repo, testing::kWp, dedup_on)
                        .run(events, testing::kWp);
  const auto without = Predictor(repo, testing::kWp, dedup_off)
                           .run(events, testing::kWp);
  EXPECT_GE(without.size(), with.size());
}

TEST(PredictorEdge, EvaluationWithWindowLargerThanSpan) {
  const std::vector<bgl::Event> events = {ev(1000, 50, true),
                                          ev(1100, 50, true)};
  Warning w;
  w.issued_at = 900;
  w.deadline = 10000000;
  const auto result = evaluate_predictions(events, {{w}}, 1000000);
  EXPECT_EQ(result.overall.true_positives, 1u);  // consumed once
  EXPECT_EQ(result.overall.false_negatives, 1u);
}

}  // namespace
}  // namespace dml::predict
