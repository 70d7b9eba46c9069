#include "learners/rule.hpp"

#include <gtest/gtest.h>

namespace dml::learners {
namespace {

AssociationRule sample_ar() {
  AssociationRule ar;
  ar.antecedent = {3, 7};
  ar.consequent = 50;
  ar.support = 0.05;
  ar.confidence = 0.79;
  return ar;
}

TEST(Rule, SourceDispatch) {
  EXPECT_EQ(Rule(sample_ar()).source(), RuleSource::kAssociation);
  EXPECT_EQ(Rule(StatisticalRule{4, 0.99}).source(),
            RuleSource::kStatistical);
  EXPECT_EQ(Rule(DistributionRule{}).source(),
            RuleSource::kDistribution);
}

TEST(Rule, AccessorsReturnCorrectVariant) {
  const Rule rule{sample_ar()};
  EXPECT_NE(rule.as_association(), nullptr);
  EXPECT_EQ(rule.as_statistical(), nullptr);
  EXPECT_EQ(rule.as_distribution(), nullptr);
}

TEST(Rule, IdentityStableAcrossStatisticsChanges) {
  AssociationRule a = sample_ar();
  AssociationRule b = sample_ar();
  b.support = 0.9;
  b.confidence = 0.2;
  EXPECT_EQ(Rule(a).identity(), Rule(b).identity());
}

TEST(Rule, IdentityDistinguishesStructure) {
  AssociationRule a = sample_ar();
  AssociationRule b = sample_ar();
  b.consequent = 51;
  AssociationRule c = sample_ar();
  c.antecedent = {3, 8};
  const auto ida = Rule(a).identity();
  EXPECT_NE(ida, Rule(b).identity());
  EXPECT_NE(ida, Rule(c).identity());
}

TEST(Rule, StatisticalIdentityKeyedOnK) {
  EXPECT_EQ(Rule(StatisticalRule{3, 0.9}).identity(),
            Rule(StatisticalRule{3, 0.95}).identity());
  EXPECT_NE(Rule(StatisticalRule{3, 0.9}).identity(),
            Rule(StatisticalRule{4, 0.9}).identity());
}

TEST(Rule, DistributionIdentityBucketsTrigger) {
  DistributionRule a;
  a.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Weibull{0.5, 20000.0})};
  a.elapsed_trigger = 7300;
  DistributionRule b = a;
  b.elapsed_trigger = 7500;  // same hour bucket
  DistributionRule c = a;
  c.elapsed_trigger = 15000;  // different bucket
  EXPECT_EQ(Rule(a).identity(), Rule(b).identity());
  EXPECT_NE(Rule(a).identity(), Rule(c).identity());
}

TEST(Rule, DescribeAssociationLooksLikePaperExample) {
  // Shape: "a, b -> f: 0.79" (cf. "idoStartInfo, bglStartInfo ->
  // fsFailure: 0.79" in §4.1).
  const auto& tax = bgl::taxonomy();
  const Rule rule{sample_ar()};
  const std::string text = rule.describe(tax);
  EXPECT_NE(text.find(tax.category(3).name), std::string::npos);
  EXPECT_NE(text.find(tax.category(7).name), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_NE(text.find("0.79"), std::string::npos);
}

TEST(Rule, DescribeStatistical) {
  const Rule rule{StatisticalRule{4, 0.99}};
  const std::string text = rule.describe(bgl::taxonomy());
  EXPECT_NE(text.find("4 failures"), std::string::npos);
  EXPECT_NE(text.find("0.99"), std::string::npos);
}

TEST(Rule, DescribeDistribution) {
  DistributionRule pd;
  pd.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Weibull{0.508, 19984.8})};
  pd.cdf_threshold = 0.6;
  pd.elapsed_trigger = 20000;
  const std::string text =
      Rule{pd}.describe(bgl::taxonomy());
  EXPECT_NE(text.find("weibull"), std::string::npos);
  EXPECT_NE(text.find("0.60"), std::string::npos);
  EXPECT_NE(text.find("20000"), std::string::npos);
}

TEST(RuleSource, ToString) {
  EXPECT_EQ(to_string(RuleSource::kAssociation), "association");
  EXPECT_EQ(to_string(RuleSource::kStatistical), "statistical");
  EXPECT_EQ(to_string(RuleSource::kDistribution), "distribution");
}

}  // namespace
}  // namespace dml::learners
