#include "predict/outcome_matcher.hpp"

#include <gtest/gtest.h>

#include <string>

#include "meta/meta_learner.hpp"
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

/// The one-pass attribution against the rules x fatals scan it
/// replaced: every field, and every per-rule entry.
void expect_matches_reference(std::span<const bgl::Event> events,
                              std::span<const Warning> warnings,
                              const meta::KnowledgeRepository& repo,
                              const std::string& label) {
  const auto got = evaluate_predictions(events, warnings, 300, &repo);
  const auto want =
      reference::evaluate_predictions(events, warnings, 300, &repo);
  EXPECT_EQ(got.overall, want.overall) << label;
  EXPECT_EQ(got.per_source, want.per_source) << label;
  EXPECT_EQ(got.fatal_coverage_mask, want.fatal_coverage_mask) << label;
  EXPECT_EQ(got.total_fatals, want.total_fatals) << label;
  EXPECT_EQ(got.total_warnings, want.total_warnings) << label;
  ASSERT_EQ(got.per_rule.size(), want.per_rule.size()) << label;
  for (const auto& [id, counts] : want.per_rule) {
    const auto it = got.per_rule.find(id);
    ASSERT_NE(it, got.per_rule.end()) << label << " rule " << id;
    EXPECT_EQ(it->second, counts) << label << " rule " << id;
  }
  for (const auto& stored : repo.rules()) {
    EXPECT_TRUE(got.per_rule.contains(stored.id)) << label;
  }
}

TEST(OutcomeMatcher, AttributionMatchesReferenceOnTrainingWindows) {
  // The reviser's input: every expert's rules learned on a whole-history
  // window, replayed over that window with PD ticks.  An SDSC-shaped and
  // an ANL-shaped corpus, at three history lengths each.
  auto anl_profile = loggen::MachineProfile::anl();
  anl_profile.weeks = 16;
  anl_profile.reconfig_week = std::nullopt;
  anl_profile.scale = 0.5;
  const logio::EventStore anl(
      loggen::LogGenerator(anl_profile, 11).generate_unique_events());
  meta::MetaLearnerConfig config;
  config.enable_correlation = true;
  const meta::MetaLearner learner(config);
  for (const auto* store : {&testing::shared_store(), &anl}) {
    for (const int weeks : {4, 10, 16}) {
      const auto training = testing::weeks_of(*store, 0, weeks);
      const auto repo = learner.learn(training, testing::kWp);
      Predictor predictor(repo, testing::kWp);
      const auto warnings = predictor.run(training, testing::kWp);
      ASSERT_FALSE(warnings.empty());
      expect_matches_reference(
          training, warnings, repo,
          (store == &anl ? "anl " : "sdsc ") + std::to_string(weeks) + "w");
    }
  }
}

TEST(OutcomeMatcher, AttributionMatchesReferenceOnEdgeCases) {
  meta::KnowledgeRepository repo;
  learners::AssociationRule ar;
  ar.antecedent = {1, 2};
  ar.consequent = 50;
  const auto ar_id = repo.add(learners::Rule{ar});
  const auto sr_id =
      repo.add(learners::Rule{learners::StatisticalRule{1, 0.9}});
  // A rule that never warns.
  const auto silent_id =
      repo.add(learners::Rule{learners::StatisticalRule{3, 0.9}});
  learners::DistributionRule pd;
  pd.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1e-4})};
  // Longer than every gap: only the first fatal (no predecessor) is
  // eligible.
  pd.elapsed_trigger = 1'000'000;
  const auto pd_id = repo.add(learners::Rule{pd});

  const std::vector<bgl::Event> events = {
      ev(1000, 50, true), ev(1100, 50, true), ev(1150, 51, true),
      ev(9000, 50, true)};
  const std::vector<Warning> warnings = {
      warn(500, 8000, std::nullopt, learners::RuleSource::kDistribution,
           pd_id),
      // Two warnings of one statistical rule consumed by the same fatal:
      // one Tp, not two.
      warn(950, 1250, std::nullopt, learners::RuleSource::kStatistical,
           sr_id),
      warn(960, 1260, std::nullopt, learners::RuleSource::kStatistical,
           sr_id),
      warn(1050, 1350, 50, learners::RuleSource::kAssociation, ar_id),
      warn(1080, 1400, 50, learners::RuleSource::kAssociation, ar_id),
      // Consumed by a fatal, but from a rule the repository lacks.
      warn(8900, 9100, std::nullopt, learners::RuleSource::kStatistical,
           999)};
  expect_matches_reference(events, warnings, repo, "edge cases");

  const auto result = evaluate_predictions(events, warnings, 300, &repo);
  EXPECT_EQ(result.per_rule.at(sr_id),
            (stats::ConfusionCounts{1, 0, 2}));
  EXPECT_EQ(result.per_rule.at(ar_id),
            (stats::ConfusionCounts{1, 0, 2}));
  EXPECT_EQ(result.per_rule.at(silent_id), stats::ConfusionCounts{});
  EXPECT_EQ(result.per_rule.at(pd_id).true_positives, 1u);
  EXPECT_EQ(result.per_rule.at(pd_id).false_negatives, 0u);
  EXPECT_FALSE(result.per_rule.contains(999));
}

TEST(OutcomeMatcher, EmptyInputs) {
  const auto result = evaluate_predictions({}, {}, 300);
  EXPECT_EQ(result.overall, stats::ConfusionCounts{});
  EXPECT_EQ(result.total_fatals, 0u);
}

}  // namespace
}  // namespace dml::predict
