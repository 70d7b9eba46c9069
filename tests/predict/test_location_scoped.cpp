// The "where" extension: location-scoped prediction (paper §1.1 — tell
// checkpointing "when and where").
#include <gtest/gtest.h>

#include "predict/outcome_matcher.hpp"
#include "predict/predictor.hpp"
#include "support/test_fixtures.hpp"

namespace dml::predict {
namespace {

bgl::Event ev(TimeSec t, CategoryId cat, bool fatal, int midplane) {
  bgl::Event e;
  e.time = t;
  e.category = cat;
  e.fatal = fatal;
  e.location = bgl::Location::compute_chip(0, midplane, 3, 4, 0);
  return e;
}

meta::KnowledgeRepository ar_repo() {
  meta::KnowledgeRepository repo;
  learners::AssociationRule rule;
  rule.antecedent = {1, 2};
  rule.consequent = 50;
  rule.confidence = 0.9;
  repo.add(learners::Rule{rule});
  return repo;
}

PredictorOptions scoped() {
  PredictorOptions options;
  options.location_scoped = true;
  return options;
}

TEST(LocationScoped, AntecedentMustCompleteWithinOneMidplane) {
  const auto repo = ar_repo();
  Predictor predictor(repo, 300, scoped());
  // The two antecedent items arrive on different midplanes: no match.
  predictor.observe(ev(1000, 1, false, 0));
  EXPECT_TRUE(predictor.observe(ev(1010, 2, false, 1)).empty());
  // A global (unscoped) predictor would have fired here.
  Predictor global(repo, 300);
  global.observe(ev(2000, 1, false, 0));
  EXPECT_EQ(global.observe(ev(2010, 2, false, 1)).size(), 1u);
}

TEST(LocationScoped, WarningCarriesTheMidplane) {
  const auto repo = ar_repo();
  Predictor predictor(repo, 300, scoped());
  predictor.observe(ev(1000, 1, false, 1));
  const auto warnings = predictor.observe(ev(1010, 2, false, 1));
  ASSERT_EQ(warnings.size(), 1u);
  ASSERT_TRUE(warnings[0].location.has_value());
  EXPECT_EQ(*warnings[0].location, bgl::Location::midplane_scope(0, 1));
}

TEST(LocationScoped, UnscopedWarningHasNoLocation) {
  const auto repo = ar_repo();
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 1, false, 1));
  const auto warnings = predictor.observe(ev(1010, 2, false, 1));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_FALSE(warnings[0].location.has_value());
}

TEST(LocationScoped, StatisticalCountsPerMidplane) {
  meta::KnowledgeRepository repo;
  repo.add(learners::Rule{
      learners::StatisticalRule{2, 0.9}});
  Predictor predictor(repo, 300, scoped());
  // Two fatals on different midplanes: no scoped trigger.
  predictor.observe(ev(1000, 50, true, 0));
  EXPECT_TRUE(predictor.observe(ev(1050, 50, true, 1)).empty());
  // Second fatal on midplane 1: triggers (2 fatals on midplane 1).
  const auto warnings = predictor.observe(ev(1100, 50, true, 1));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(*warnings[0].location, bgl::Location::midplane_scope(0, 1));
}

TEST(LocationScoped, EvaluationRequiresMidplaneMatch) {
  const std::vector<bgl::Event> events = {ev(1000, 50, true, 1)};
  Warning warning;
  warning.issued_at = 900;
  warning.deadline = 1200;
  warning.category = 50;
  warning.location = bgl::Location::midplane_scope(0, 0);  // wrong midplane
  auto result = evaluate_predictions(events, {{warning}}, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{0, 1, 1}));

  warning.location = bgl::Location::midplane_scope(0, 1);  // right midplane
  result = evaluate_predictions(events, {{warning}}, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{1, 0, 0}));
}

TEST(LocationScoped, EndToEndPrecisionRecallTradeoff) {
  // Scoping makes warnings strictly harder to satisfy: recall cannot
  // rise; warnings also become more specific, and coverage is only
  // granted for the right midplane.
  const auto& store = testing::shared_store();
  const auto& repo = testing::shared_repository();
  const auto test_events = testing::weeks_of(store, 26, 34);

  auto evaluate = [&](bool location_scoped) {
    PredictorOptions options;
    options.location_scoped = location_scoped;
    Predictor predictor(repo, testing::kWp, options);
    const auto warnings = predictor.run(test_events, testing::kWp);
    return evaluate_predictions(test_events, warnings, testing::kWp);
  };
  const auto global = evaluate(false);
  const auto scoped_run = evaluate(true);
  EXPECT_LE(stats::recall(scoped_run.overall),
            stats::recall(global.overall) + 0.02);
  EXPECT_GT(stats::recall(scoped_run.overall), 0.1);
}

TEST(FlatEnsemble, PdFiresEvenWhenPatternMatched) {
  meta::KnowledgeRepository repo;
  repo.add(learners::Rule{
      learners::StatisticalRule{2, 0.9}});
  learners::DistributionRule pd;
  pd.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1e-4})};
  pd.elapsed_trigger = 10;
  repo.add(learners::Rule{pd});

  PredictorOptions flat;
  flat.mixture_precedence = false;
  Predictor predictor(repo, 300, flat);
  predictor.observe(ev(1000, 50, true, 0));
  // SR matches AND the PD expert also speaks in the flat ensemble.
  const auto warnings = predictor.observe(ev(1200, 50, true, 0));
  ASSERT_EQ(warnings.size(), 2u);
}

}  // namespace
}  // namespace dml::predict
