#include "meta/meta_learner.hpp"

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "support/test_fixtures.hpp"

namespace dml::meta {
namespace {

TEST(MetaLearner, PoolsRulesFromAllThreeBaseLearners) {
  const auto& store = testing::shared_store();
  MetaLearner learner{MetaLearnerConfig{}};
  const auto repo = learner.learn(testing::weeks_of(store, 0, 26),
                                  testing::kWp);
  EXPECT_GT(repo.count_by_source(learners::RuleSource::kAssociation), 5u);
  EXPECT_GE(repo.count_by_source(learners::RuleSource::kStatistical), 1u);
  EXPECT_EQ(repo.count_by_source(learners::RuleSource::kDistribution), 1u);
}

TEST(MetaLearner, PrecedenceOrderIsEncodedInInsertionOrder) {
  // Association rules first, then statistical, then distribution — the
  // mixture-of-experts dispatch order (Figure 6).
  const auto& store = testing::shared_store();
  MetaLearner learner{MetaLearnerConfig{}};
  const auto repo = learner.learn(testing::weeks_of(store, 0, 26),
                                  testing::kWp);
  int max_seen = 0;
  for (const auto& stored : repo.rules()) {
    const int rank = static_cast<int>(stored.rule.source());
    EXPECT_GE(rank, max_seen);
    max_seen = std::max(max_seen, rank);
  }
}

TEST(MetaLearner, DisablingLearnersRemovesTheirRules) {
  const auto& store = testing::shared_store();
  MetaLearnerConfig config;
  config.enable_association = false;
  config.enable_distribution = false;
  MetaLearner learner{config};
  const auto repo = learner.learn(testing::weeks_of(store, 0, 26),
                                  testing::kWp);
  EXPECT_EQ(repo.count_by_source(learners::RuleSource::kAssociation), 0u);
  EXPECT_EQ(repo.count_by_source(learners::RuleSource::kDistribution), 0u);
  EXPECT_GT(repo.size(), 0u);
}

TEST(MetaLearner, ParallelAndSerialTrainingAgree) {
  const auto& store = testing::shared_store();
  const auto training = testing::weeks_of(store, 0, 20);
  MetaLearnerConfig serial;
  serial.parallel_training = false;
  MetaLearnerConfig parallel;
  parallel.parallel_training = true;
  const auto repo_serial = MetaLearner{serial}.learn(training, testing::kWp);
  const auto repo_parallel =
      MetaLearner{parallel}.learn(training, testing::kWp);
  ASSERT_EQ(repo_serial.size(), repo_parallel.size());
  for (std::size_t i = 0; i < repo_serial.size(); ++i) {
    EXPECT_EQ(repo_serial.rules()[i].rule.identity(),
              repo_parallel.rules()[i].rule.identity());
  }
}

TEST(MetaLearner, LearningInsideAPoolTaskMatchesSerialAndCallerThread) {
  // A daemon build runs learn() on a pool worker, where its learners and
  // Apriori's counting fan out on the same pool.  The rules must equal a
  // serial build's and a build from outside the pool, rule for rule.
  const auto& store = testing::shared_store();
  const auto training = testing::weeks_of(store, 0, 20);
  MetaLearnerConfig serial;
  serial.enable_correlation = true;
  serial.parallel_training = false;
  MetaLearnerConfig parallel = serial;
  parallel.parallel_training = true;
  const auto repo_serial = MetaLearner{serial}.learn(training, testing::kWp);
  const auto repo_caller =
      MetaLearner{parallel}.learn(training, testing::kWp);
  const auto repo_pool = ThreadPool::shared()
                             .submit([&] {
                               return MetaLearner{parallel}.learn(
                                   training, testing::kWp);
                             })
                             .get();
  EXPECT_GT(repo_serial.count_by_source(learners::RuleSource::kCorrelation),
            0u);
  ASSERT_EQ(repo_serial.size(), repo_caller.size());
  ASSERT_EQ(repo_serial.size(), repo_pool.size());
  for (std::size_t i = 0; i < repo_serial.size(); ++i) {
    EXPECT_EQ(repo_serial.rules()[i].id, repo_pool.rules()[i].id);
    EXPECT_EQ(repo_serial.rules()[i].rule.identity(),
              repo_caller.rules()[i].rule.identity());
    EXPECT_EQ(repo_serial.rules()[i].rule.identity(),
              repo_pool.rules()[i].rule.identity());
  }
}

TEST(MetaLearner, ReportsPerStageTimings) {
  const auto& store = testing::shared_store();
  MetaLearner learner{MetaLearnerConfig{}};
  TrainTimes times;
  learner.learn(testing::weeks_of(store, 0, 26), testing::kWp, &times);
  EXPECT_GE(times.association_seconds, 0.0);
  EXPECT_GE(times.statistical_seconds, 0.0);
  EXPECT_GE(times.distribution_seconds, 0.0);
  EXPECT_GT(times.total_seconds(), 0.0);
}

TEST(MetaLearner, EmptyTrainingYieldsEmptyRepository) {
  MetaLearner learner{MetaLearnerConfig{}};
  const auto repo = learner.learn({}, testing::kWp);
  EXPECT_TRUE(repo.empty());
}

TEST(MetaLearner, WindowSizeChangesMinedRules) {
  // The rule-generation window Wp shapes the event sets, so different
  // windows must be able to produce different association rule sets.
  const auto& store = testing::shared_store();
  const auto training = testing::weeks_of(store, 0, 26);
  MetaLearnerConfig config;
  config.enable_statistical = false;
  config.enable_distribution = false;
  const auto narrow = MetaLearner{config}.learn(training, 60);
  const auto wide = MetaLearner{config}.learn(training, 1800);
  EXPECT_GT(wide.size(), 0u);
  const auto churn = KnowledgeRepository::diff(narrow, wide);
  EXPECT_GT(churn.added + churn.removed, 0u);
}

}  // namespace
}  // namespace dml::meta
