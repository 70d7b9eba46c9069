#include "predict/outcome_matcher.hpp"

#include <gtest/gtest.h>

namespace dml::predict {
namespace {

bgl::Event ev(TimeSec t, CategoryId cat, bool fatal) {
  bgl::Event e;
  e.time = t;
  e.category = cat;
  e.fatal = fatal;
  return e;
}

Warning warn(TimeSec issued, TimeSec deadline,
             std::optional<CategoryId> category,
             learners::RuleSource source = learners::RuleSource::kAssociation,
             std::uint64_t rule_id = 1) {
  Warning w;
  w.issued_at = issued;
  w.deadline = deadline;
  w.category = category;
  w.source = source;
  w.rule_id = rule_id;
  return w;
}

TEST(OutcomeMatcher, TruePositiveWhenFailureInWindow) {
  const std::vector<bgl::Event> events = {ev(1000, 50, true)};
  const std::vector<Warning> warnings = {warn(900, 1200, 50)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall,
            (stats::ConfusionCounts{1, 0, 0}));
  EXPECT_EQ(result.total_fatals, 1u);
  EXPECT_EQ(result.total_warnings, 1u);
}

TEST(OutcomeMatcher, WarningMustPrecedeFailure) {
  const std::vector<bgl::Event> events = {ev(1000, 50, true)};
  // Warning issued exactly at the failure's second does not count.
  const std::vector<Warning> warnings = {warn(1000, 1300, 50)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{0, 1, 1}));
}

TEST(OutcomeMatcher, DeadlineIsInclusive) {
  const std::vector<bgl::Event> events = {ev(1200, 50, true)};
  const std::vector<Warning> warnings = {warn(900, 1200, 50)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall.true_positives, 1u);
}

TEST(OutcomeMatcher, CategoryMismatchIsFalseAlarm) {
  const std::vector<bgl::Event> events = {ev(1000, 51, true)};
  const std::vector<Warning> warnings = {warn(900, 1200, 50)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{0, 1, 1}));
}

TEST(OutcomeMatcher, CategorylessWarningMatchesAnyFailure) {
  const std::vector<bgl::Event> events = {ev(1000, 51, true)};
  const std::vector<Warning> warnings = {
      warn(900, 1200, std::nullopt, learners::RuleSource::kStatistical)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall.true_positives, 1u);
}

TEST(OutcomeMatcher, WarningConsumedByFirstMatch) {
  // One warning, two failures in its window: only the first is covered —
  // a single warning predicts a single failure.
  const std::vector<bgl::Event> events = {ev(1000, 50, true),
                                          ev(1100, 50, true)};
  const std::vector<Warning> warnings = {warn(900, 1500, std::nullopt)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{1, 0, 1}));
}

TEST(OutcomeMatcher, FatalCoveredByMultipleWarnings) {
  const std::vector<bgl::Event> events = {ev(1000, 50, true)};
  const std::vector<Warning> warnings = {
      warn(900, 1200, 50, learners::RuleSource::kAssociation, 1),
      warn(950, 1250, std::nullopt, learners::RuleSource::kStatistical, 2)};
  const auto result = evaluate_predictions(events, warnings, 300);
  // One covered fatal; both warnings correct.
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{1, 0, 0}));
  ASSERT_EQ(result.fatal_coverage_mask.size(), 1u);
  EXPECT_EQ(result.fatal_coverage_mask[0], 0b011);
  EXPECT_EQ(result.per_source[0].true_positives, 1u);
  EXPECT_EQ(result.per_source[1].true_positives, 1u);
  EXPECT_EQ(result.per_source[2].false_negatives, 1u);
}

TEST(OutcomeMatcher, MissedFailureIsFalseNegativeForEverySource) {
  const std::vector<bgl::Event> events = {ev(1000, 50, true)};
  const auto result = evaluate_predictions(events, {}, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{0, 0, 1}));
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(result.per_source[s].false_negatives, 1u);
  }
}

TEST(OutcomeMatcher, NonFatalEventsAreIgnored) {
  const std::vector<bgl::Event> events = {ev(1000, 1, false),
                                          ev(1100, 2, false)};
  const std::vector<Warning> warnings = {warn(900, 1200, std::nullopt)};
  const auto result = evaluate_predictions(events, warnings, 300);
  EXPECT_EQ(result.overall, (stats::ConfusionCounts{0, 1, 0}));
  EXPECT_EQ(result.total_fatals, 0u);
}

TEST(OutcomeMatcher, PerRuleAttributionWithScopedEligibility) {
  meta::KnowledgeRepository repo;
  learners::AssociationRule ar;
  ar.antecedent = {1, 2};
  ar.consequent = 50;
  const auto ar_id = repo.add(learners::Rule{ar});

  // Fatals: one of category 50 (covered), one of 50 (missed), one of 51
  // (out of the AR rule's scope).
  const std::vector<bgl::Event> events = {
      ev(1000, 50, true), ev(5000, 50, true), ev(9000, 51, true)};
  const std::vector<Warning> warnings = {
      warn(900, 1200, 50, learners::RuleSource::kAssociation, ar_id)};
  const auto result = evaluate_predictions(events, warnings, 300, &repo);
  const auto& counts = result.per_rule.at(ar_id);
  EXPECT_EQ(counts.true_positives, 1u);
  EXPECT_EQ(counts.false_positives, 0u);
  EXPECT_EQ(counts.false_negatives, 1u);  // the missed 50; 51 not in scope
}

TEST(OutcomeMatcher, StatisticalRuleScopeRequiresPrecedingFatals) {
  meta::KnowledgeRepository repo;
  const auto sr_id = repo.add(
      learners::Rule{learners::StatisticalRule{2, 0.9}});

  // Burst of three fatals, then an isolated one.
  const std::vector<bgl::Event> events = {
      ev(1000, 50, true), ev(1050, 50, true), ev(1100, 50, true),
      ev(99000, 50, true)};
  const auto result = evaluate_predictions(events, {}, 300, &repo);
  const auto& counts = result.per_rule.at(sr_id);
  // Eligible: fatals #2 (1 predecessor... k=2 needs 2 preceding) — only
  // fatal #3 has 2 fatals within its preceding window.
  EXPECT_EQ(counts.false_negatives, 1u);
}

TEST(OutcomeMatcher, DistributionRuleScopeRequiresLongGap) {
  meta::KnowledgeRepository repo;
  learners::DistributionRule pd;
  pd.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1e-4})};
  pd.elapsed_trigger = 5000;
  const auto pd_id =
      repo.add(learners::Rule{pd});

  const std::vector<bgl::Event> events = {
      ev(1000, 50, true), ev(2000, 50, true),   // gap 1000: out of scope
      ev(20000, 50, true)};                      // gap 18000: in scope
  const auto result = evaluate_predictions(events, {}, 300, &repo);
  const auto& counts = result.per_rule.at(pd_id);
  // The first fatal has an effectively infinite gap (no predecessor) and
  // counts as eligible; the 1000 s gap does not.
  EXPECT_EQ(counts.false_negatives, 2u);
}

TEST(OutcomeMatcher, EmptyInputs) {
  const auto result = evaluate_predictions({}, {}, 300);
  EXPECT_EQ(result.overall, stats::ConfusionCounts{});
  EXPECT_EQ(result.total_fatals, 0u);
}

}  // namespace
}  // namespace dml::predict
