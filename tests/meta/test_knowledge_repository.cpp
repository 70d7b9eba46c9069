#include "meta/knowledge_repository.hpp"

#include <gtest/gtest.h>

namespace dml::meta {
namespace {

learners::Rule ar_rule(CategoryId a, CategoryId b, CategoryId consequent) {
  learners::AssociationRule rule;
  rule.antecedent = {a, b};
  rule.consequent = consequent;
  rule.confidence = 0.5;
  return learners::Rule{rule};
}

learners::Rule sr_rule(int k) {
  return learners::Rule{
      learners::StatisticalRule{k, 0.9}};
}

TEST(KnowledgeRepository, AddAssignsUniqueIncreasingIds) {
  KnowledgeRepository repo;
  const auto id1 = repo.add(ar_rule(1, 2, 50));
  const auto id2 = repo.add(sr_rule(3));
  EXPECT_LT(id1, id2);
  EXPECT_EQ(repo.size(), 2u);
}

TEST(KnowledgeRepository, FindAndRemove) {
  KnowledgeRepository repo;
  const auto id = repo.add(ar_rule(1, 2, 50));
  ASSERT_NE(repo.find(id), nullptr);
  EXPECT_EQ(repo.find(id)->rule.source(), learners::RuleSource::kAssociation);
  EXPECT_TRUE(repo.remove(id));
  EXPECT_EQ(repo.find(id), nullptr);
  EXPECT_FALSE(repo.remove(id));
  EXPECT_TRUE(repo.empty());
}

TEST(KnowledgeRepository, CountBySource) {
  KnowledgeRepository repo;
  repo.add(ar_rule(1, 2, 50));
  repo.add(ar_rule(1, 3, 51));
  repo.add(sr_rule(4));
  EXPECT_EQ(repo.count_by_source(learners::RuleSource::kAssociation), 2u);
  EXPECT_EQ(repo.count_by_source(learners::RuleSource::kStatistical), 1u);
  EXPECT_EQ(repo.count_by_source(learners::RuleSource::kDistribution), 0u);
}

TEST(KnowledgeRepository, DiffCountsChurn) {
  KnowledgeRepository before;
  before.add(ar_rule(1, 2, 50));
  before.add(ar_rule(1, 3, 51));
  before.add(sr_rule(4));

  KnowledgeRepository after;
  after.add(ar_rule(1, 2, 50));  // unchanged (same identity, new id)
  after.add(ar_rule(2, 3, 52));  // added
  after.add(sr_rule(3));         // added (different k)

  const auto churn = KnowledgeRepository::diff(before, after);
  EXPECT_EQ(churn.unchanged, 1u);
  EXPECT_EQ(churn.added, 2u);
  EXPECT_EQ(churn.removed, 2u);
  EXPECT_NEAR(churn.change_rate(), 4.0, 1e-9);
}

TEST(KnowledgeRepository, DiffWithEmptyRepositories) {
  KnowledgeRepository empty, populated;
  populated.add(sr_rule(2));
  const auto added = KnowledgeRepository::diff(empty, populated);
  EXPECT_EQ(added.added, 1u);
  EXPECT_EQ(added.removed, 0u);
  EXPECT_EQ(added.unchanged, 0u);
  EXPECT_DOUBLE_EQ(added.change_rate(), 0.0);  // no unchanged baseline

  const auto removed = KnowledgeRepository::diff(populated, empty);
  EXPECT_EQ(removed.removed, 1u);
}

TEST(KnowledgeRepository, StoredRuleCarriesReviserAnnotations) {
  KnowledgeRepository repo;
  const auto id = repo.add(sr_rule(2));
  auto* stored = repo.find(id);
  stored->training_counts = {10, 2, 5};
  stored->roc = 1.1;
  EXPECT_EQ(repo.find(id)->training_counts.true_positives, 10u);
  EXPECT_DOUBLE_EQ(repo.find(id)->roc, 1.1);
}

}  // namespace
}  // namespace dml::meta
