#include "predict/predictor.hpp"

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

meta::KnowledgeRepository ar_repo(std::vector<CategoryId> antecedent,
                                  CategoryId consequent) {
  meta::KnowledgeRepository repo;
  learners::AssociationRule rule;
  rule.antecedent = std::move(antecedent);
  rule.consequent = consequent;
  rule.confidence = 0.9;
  repo.add(learners::Rule{rule});
  return repo;
}

meta::KnowledgeRepository sr_repo(int k) {
  meta::KnowledgeRepository repo;
  repo.add(learners::Rule{
      learners::StatisticalRule{k, 0.95}});
  return repo;
}

meta::KnowledgeRepository pd_repo(DurationSec trigger) {
  meta::KnowledgeRepository repo;
  learners::DistributionRule rule;
  rule.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1.0 / 10000.0})};
  rule.cdf_threshold = 0.6;
  rule.elapsed_trigger = trigger;
  repo.add(learners::Rule{rule});
  return repo;
}

TEST(Predictor, AssociationRuleFiresWhenAntecedentComplete) {
  const auto repo = ar_repo({1, 2}, 50);
  Predictor predictor(repo, 300);
  EXPECT_TRUE(predictor.observe(ev(1000, 1, false)).empty());
  const auto warnings = predictor.observe(ev(1100, 2, false));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].issued_at, 1100);
  EXPECT_EQ(warnings[0].deadline, 1400);
  EXPECT_EQ(warnings[0].category, 50);
  EXPECT_EQ(warnings[0].source, learners::RuleSource::kAssociation);
}

TEST(Predictor, AssociationRuleRespectsWindowExpiry) {
  const auto repo = ar_repo({1, 2}, 50);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 1, false));
  // Second antecedent item arrives after the first left the window.
  EXPECT_TRUE(predictor.observe(ev(1400, 2, false)).empty());
}

TEST(Predictor, AssociationRuleIgnoresIncompleteAntecedent) {
  const auto repo = ar_repo({1, 2, 3}, 50);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 1, false));
  EXPECT_TRUE(predictor.observe(ev(1010, 2, false)).empty());
}

TEST(Predictor, AssociationWarningDeduplicatesWhilePending) {
  const auto repo = ar_repo({1, 2}, 50);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 1, false));
  EXPECT_EQ(predictor.observe(ev(1010, 2, false)).size(), 1u);
  // Re-trigger within the pending window: suppressed.
  EXPECT_TRUE(predictor.observe(ev(1020, 2, false)).empty());
  // After the deadline passes, it may fire again.
  predictor.observe(ev(1600, 1, false));
  EXPECT_EQ(predictor.observe(ev(1610, 2, false)).size(), 1u);
}

TEST(Predictor, AssociationRearmsWhenPredictedFailureArrives) {
  const auto repo = ar_repo({1, 2}, 50);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 1, false));
  EXPECT_EQ(predictor.observe(ev(1010, 2, false)).size(), 1u);
  // The predicted failure occurs: warning resolved.
  predictor.observe(ev(1050, 50, true));
  // Fresh evidence within the original pending window now re-fires (the
  // earlier antecedent items are still inside the 300 s window).
  EXPECT_EQ(predictor.observe(ev(1060, 1, false)).size(), 1u);
}

TEST(Predictor, StatisticalRuleCountsFatalsInWindow) {
  const auto repo = sr_repo(3);
  Predictor predictor(repo, 300);
  EXPECT_TRUE(predictor.observe(ev(1000, 50, true)).empty());
  EXPECT_TRUE(predictor.observe(ev(1050, 50, true)).empty());
  const auto warnings = predictor.observe(ev(1100, 50, true));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_FALSE(warnings[0].category.has_value());
  EXPECT_EQ(warnings[0].source, learners::RuleSource::kStatistical);
}

TEST(Predictor, StatisticalRuleReissuesPerTrigger) {
  const auto repo = sr_repo(2);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 50, true));
  EXPECT_EQ(predictor.observe(ev(1050, 50, true)).size(), 1u);
  // Each further failure is a fresh trigger (cascade tracking).
  EXPECT_EQ(predictor.observe(ev(1100, 50, true)).size(), 1u);
}

TEST(Predictor, StatisticalWindowSlides) {
  const auto repo = sr_repo(2);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 50, true));
  // 1400 is beyond 1000+300: the old fatal left the window.
  EXPECT_TRUE(predictor.observe(ev(1400, 50, true)).empty());
}

TEST(Predictor, DistributionRuleFiresAfterTrigger) {
  const auto repo = pd_repo(5000);
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 50, true));  // establishes last-fatal
  EXPECT_TRUE(predictor.observe(ev(3000, 1, false)).empty());  // elapsed 2000
  const auto warnings = predictor.observe(ev(7000, 1, false));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].source, learners::RuleSource::kDistribution);
  EXPECT_FALSE(warnings[0].category.has_value());
  // Horizon scales with elapsed time (6000 * default factor 6.0).
  EXPECT_EQ(warnings[0].deadline, 7000 + 36000);
}

TEST(Predictor, DistributionRuleSilentBeforeFirstFatal) {
  const auto repo = pd_repo(10);
  Predictor predictor(repo, 300);
  EXPECT_TRUE(predictor.observe(ev(100000, 1, false)).empty());
  EXPECT_TRUE(predictor.tick(200000).empty());
}

TEST(Predictor, TickRunsOnlyDistributionExpert) {
  meta::KnowledgeRepository repo = ar_repo({1, 2}, 50);
  learners::DistributionRule pd;
  pd.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1e-4})};
  pd.elapsed_trigger = 1000;
  repo.add(learners::Rule{pd});
  Predictor predictor(repo, 300);
  predictor.observe(ev(0, 50, true));
  const auto warnings = predictor.tick(5000);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].source, learners::RuleSource::kDistribution);
}

TEST(Predictor, DistributionDeduplicatesUntilDeadline) {
  const auto repo = pd_repo(1000);
  PredictorOptions options;
  options.pd_horizon_factor = 3.0;
  Predictor predictor(repo, 300, options);
  predictor.observe(ev(0, 50, true));
  EXPECT_EQ(predictor.tick(2000).size(), 1u);  // deadline 2000+6000
  EXPECT_TRUE(predictor.tick(4000).empty());
  EXPECT_TRUE(predictor.tick(7900).empty());
  EXPECT_EQ(predictor.tick(8100).size(), 1u);
}

TEST(Predictor, DistributionRearmsAfterFatal) {
  const auto repo = pd_repo(1000);
  Predictor predictor(repo, 300);
  predictor.observe(ev(0, 50, true));
  EXPECT_EQ(predictor.tick(50000).size(), 1u);  // long horizon warning
  predictor.observe(ev(50100, 50, true));       // failure resolves it
  // New cycle: trigger is measured from the fresh failure.
  EXPECT_TRUE(predictor.tick(50500).empty());   // elapsed 400 < 1000
  EXPECT_EQ(predictor.tick(51600).size(), 1u);  // elapsed 1500 >= 1000
}

TEST(Predictor, MixtureOfExpertsSuppressesPdWhenPatternMatched) {
  meta::KnowledgeRepository repo = sr_repo(2);
  learners::DistributionRule pd;
  pd.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1e-4})};
  pd.elapsed_trigger = 10;
  repo.add(learners::Rule{pd});
  Predictor predictor(repo, 300);
  predictor.observe(ev(1000, 50, true));
  // Second fatal matches the statistical rule; the PD expert (elapsed
  // 200 >= 10) must stay silent because a pattern rule matched.
  const auto warnings = predictor.observe(ev(1200, 50, true));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].source, learners::RuleSource::kStatistical);
}

TEST(Predictor, PdHorizonFactorZeroPinsDeadlineToWindow) {
  const auto repo = pd_repo(1000);
  PredictorOptions options;
  options.pd_horizon_factor = 0.0;
  Predictor predictor(repo, 300, options);
  predictor.observe(ev(0, 50, true));
  const auto warnings = predictor.tick(5000);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].deadline, 5300);
}

TEST(Predictor, RunInjectsTicks) {
  const auto repo = pd_repo(1000);
  Predictor with_ticks(repo, 300);
  // Two events 100,000 s apart; without ticks the quiet period produces
  // at most one warning (at the second event), with ticks several.
  const std::vector<bgl::Event> events = {ev(0, 50, true),
                                          ev(100000, 1, false)};
  const auto warnings = with_ticks.run(events, 300);
  EXPECT_GE(warnings.size(), 3u);

  Predictor without_ticks(repo, 300);
  EXPECT_LE(without_ticks.run(events, 0).size(), 1u);
}

TEST(Predictor, EmptyRepositoryNeverWarns) {
  meta::KnowledgeRepository repo;
  Predictor predictor(repo, 300);
  EXPECT_TRUE(predictor.observe(ev(0, 50, true)).empty());
  EXPECT_TRUE(predictor.observe(ev(10, 1, false)).empty());
  EXPECT_TRUE(predictor.tick(100).empty());
}

TEST(Predictor, LastFatalTimeTracked) {
  meta::KnowledgeRepository repo;
  Predictor predictor(repo, 300);
  EXPECT_FALSE(predictor.last_fatal_time().has_value());
  predictor.observe(ev(123, 50, true));
  EXPECT_EQ(predictor.last_fatal_time(), 123);
}

}  // namespace
}  // namespace dml::predict
