#include "predict/reviser.hpp"

#include <gtest/gtest.h>

#include "predict/outcome_matcher.hpp"
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

/// Training stream with a reliable pattern {1,2}->50 and an unreliable
/// chatter pair {3,4} that fires constantly without failures.
std::vector<bgl::Event> mixed_training() {
  std::vector<bgl::Event> events;
  TimeSec t = 0;
  for (int i = 0; i < 40; ++i) {
    t += 5000;
    events.push_back(ev(t - 120, 1, false));
    events.push_back(ev(t - 60, 2, false));
    events.push_back(ev(t, 50, true));
    // Ambient chatter between failures: 4 firings of {3,4}.
    for (int j = 1; j <= 4; ++j) {
      events.push_back(ev(t + j * 900, 3, false));
      events.push_back(ev(t + j * 900 + 10, 4, false));
    }
    // And occasionally right before a failure, so the miner keeps it.
    if (i % 4 == 0) {
      events.push_back(ev(t + 4970, 3, false));
      events.push_back(ev(t + 4980, 4, false));
    }
  }
  std::sort(events.begin(), events.end(), bgl::EventTimeOrder{});
  return events;
}

meta::KnowledgeRepository two_rule_repo() {
  meta::KnowledgeRepository repo;
  learners::AssociationRule good;
  good.antecedent = {1, 2};
  good.consequent = 50;
  good.confidence = 1.0;
  repo.add(learners::Rule{good});
  learners::AssociationRule bad;
  bad.antecedent = {3, 4};
  bad.consequent = 50;
  bad.confidence = 0.2;
  repo.add(learners::Rule{bad});
  return repo;
}

TEST(Reviser, KeepsGoodRuleRemovesBadRule) {
  auto repo = two_rule_repo();
  const auto training = mixed_training();
  const auto report = revise(repo, training, 300);
  EXPECT_EQ(report.examined, 2u);
  EXPECT_EQ(report.removed, 1u);
  ASSERT_EQ(repo.size(), 1u);
  EXPECT_EQ(repo.rules()[0].rule.as_association()->antecedent,
            (learners::Itemset{1, 2}));
}

TEST(Reviser, AnnotatesSurvivorsWithRocAndCounts) {
  auto repo = two_rule_repo();
  revise(repo, mixed_training(), 300);
  ASSERT_EQ(repo.size(), 1u);
  const auto& stored = repo.rules()[0];
  EXPECT_GE(stored.roc, 0.7);
  EXPECT_GT(stored.training_counts.true_positives, 30u);
  EXPECT_EQ(stored.training_counts.false_positives, 0u);
}

TEST(Reviser, MinRocControlsStrictness) {
  // With MinROC = 0 everything survives.
  auto repo = two_rule_repo();
  ReviserConfig lax;
  lax.min_roc = 0.0;
  const auto report = revise(repo, mixed_training(), 300, lax);
  EXPECT_EQ(report.removed, 0u);
  EXPECT_EQ(repo.size(), 2u);

  // With MinROC > sqrt(2) nothing can survive.
  auto repo2 = two_rule_repo();
  ReviserConfig impossible;
  impossible.min_roc = 1.5;
  revise(repo2, mixed_training(), 300, impossible);
  EXPECT_TRUE(repo2.empty());
}

TEST(Reviser, EmptyRepositoryIsNoop) {
  meta::KnowledgeRepository repo;
  const auto report = revise(repo, mixed_training(), 300);
  EXPECT_EQ(report.examined, 0u);
  EXPECT_EQ(report.removed, 0u);
}

TEST(Reviser, RuleWithNoTrainingActivityIsRemoved) {
  // A rule whose antecedent categories never occur has TP=FP=0 and some
  // eligible failures -> ROC 0 -> removed.
  meta::KnowledgeRepository repo;
  learners::AssociationRule unused;
  unused.antecedent = {200, 201};
  unused.consequent = 50;
  repo.add(learners::Rule{unused});
  const auto report = revise(repo, mixed_training(), 300);
  EXPECT_EQ(report.removed, 1u);
}

TEST(Reviser, ImprovesAccuracyOnGeneratedLog) {
  // Figure 11's claim: revising improves precision on held-out data.
  const auto& store = testing::shared_store();
  const auto training = testing::weeks_of(store, 0, 26);
  const auto test = testing::weeks_of(store, 26, 34);

  meta::MetaLearner learner{meta::MetaLearnerConfig{}};
  auto unrevised = learner.learn(training, testing::kWp);
  auto revised = learner.learn(training, testing::kWp);
  revise(revised, training, testing::kWp);
  ASSERT_LT(revised.size(), unrevised.size());

  auto precision_of = [&](const meta::KnowledgeRepository& repo) {
    Predictor predictor(repo, testing::kWp);
    const auto warnings = predictor.run(test, testing::kWp);
    const auto eval = evaluate_predictions(test, warnings, testing::kWp);
    return stats::precision(eval.overall);
  };
  EXPECT_GT(precision_of(revised), precision_of(unrevised));
}

}  // namespace
}  // namespace dml::predict
