#include "meta/snapshot.hpp"

#include <gtest/gtest.h>

#include "learners/rule.hpp"

namespace dml::meta {
namespace {

learners::Rule make_rule(int k) {
  learners::StatisticalRule rule;
  rule.k = k;
  rule.probability = 0.9;
  return learners::Rule(rule);
}

TEST(Snapshot, EmptySnapshotIsSharedAndEmpty) {
  const auto a = empty_snapshot();
  const auto b = empty_snapshot();
  ASSERT_TRUE(a);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 0u);
}

TEST(Snapshot, FreezeCapturesRepositoryContents) {
  KnowledgeRepository repo;
  repo.add(make_rule(7));
  repo.add(make_rule(9));
  const auto snapshot = freeze(std::move(repo));
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot->size(), 2u);
}

}  // namespace
}  // namespace dml::meta
