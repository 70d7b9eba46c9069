#include "meta/rule_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "predict/predictor.hpp"
#include "support/test_fixtures.hpp"

namespace dml::meta {
namespace {

learners::Rule sample_ar() {
  learners::AssociationRule rule;
  rule.antecedent = {3, 7, 12};
  rule.consequent = bgl::taxonomy().fatal_ids().front();
  rule.support = 0.0123;
  rule.confidence = 0.79;
  return learners::Rule{std::move(rule)};
}

// GCC 12 variant-copy false positive; see the matching note in
// rule_io.cpp.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
learners::Rule sample_pd(const char* family) {
  learners::DistributionRule rule;
  if (std::string_view(family) == "weibull") {
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::Weibull{0.507936, 19984.8})};
  } else if (std::string_view(family) == "exponential") {
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::Exponential{1.25e-4})};
  } else {
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::LogNormal{7.5, 2.25})};
  }
  rule.cdf_threshold = 0.6;
  rule.elapsed_trigger = 17654;
  return learners::Rule{std::move(rule)};
}
#pragma GCC diagnostic pop

TEST(RuleIo, AssociationRoundTrip) {
  const auto rule = sample_ar();
  const auto parsed = rule_from_line(rule_to_line(rule));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->identity(), rule.identity());
  const auto* ar = parsed->as_association();
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->antecedent, rule.as_association()->antecedent);
  EXPECT_DOUBLE_EQ(ar->confidence, 0.79);
  EXPECT_DOUBLE_EQ(ar->support, 0.0123);
}

TEST(RuleIo, StatisticalRoundTrip) {
  const learners::Rule rule{
      learners::StatisticalRule{4, 0.99}};
  const auto parsed = rule_from_line(rule_to_line(rule));
  ASSERT_TRUE(parsed.has_value());
  const auto* sr = parsed->as_statistical();
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->k, 4);
  EXPECT_DOUBLE_EQ(sr->probability, 0.99);
}

TEST(RuleIo, DistributionRoundTripAllFamilies) {
  for (const char* family : {"weibull", "exponential", "lognormal"}) {
    const auto rule = sample_pd(family);
    const auto parsed = rule_from_line(rule_to_line(rule));
    ASSERT_TRUE(parsed.has_value()) << family;
    const auto* pd = parsed->as_distribution();
    ASSERT_NE(pd, nullptr) << family;
    EXPECT_EQ(pd->model.family_name(), family);
    EXPECT_EQ(pd->elapsed_trigger, 17654);
    EXPECT_DOUBLE_EQ(pd->cdf_threshold, 0.6);
    // The model parameters survive exactly (printed with %.12g).
    for (double t : {100.0, 20000.0, 90000.0}) {
      EXPECT_NEAR(pd->model.cdf(t),
                  rule.as_distribution()->model.cdf(t), 1e-9);
    }
  }
}

TEST(RuleIo, RejectsMalformedLines) {
  EXPECT_FALSE(rule_from_line("").has_value());
  EXPECT_FALSE(rule_from_line("XX|1|2").has_value());
  EXPECT_FALSE(rule_from_line("SR|0|0.9").has_value());      // k < 1
  EXPECT_FALSE(rule_from_line("SR|x|0.9").has_value());
  EXPECT_FALSE(rule_from_line("AR|0.5|0.01|no.such.category|also.missing")
                   .has_value());
  EXPECT_FALSE(rule_from_line("PD|cauchy|1|2|0.6|100").has_value());
  EXPECT_FALSE(rule_from_line("PD|weibull|1|2|0.6").has_value());  // short
}

TEST(RuleIo, RetiredClassifierLinesAreRejected) {
  // Lines the retired decision-tree and neural-net experts wrote: a
  // one-leaf tree, and a one-hidden-unit net over 14 window features
  // (hidden; 14 means; 14 stdevs; 14 input weights; b1; w2; b2; loss).
  std::string net = "NN|0.5|1";
  for (int i = 0; i < 14; ++i) net += ";0";
  for (int i = 0; i < 14; ++i) net += ";1";
  for (int i = 0; i < 14; ++i) net += ";0.25";
  net += ";0;1;-0.5;0.3";
  const std::string tree = "DT|0.5|-1:0:-1:-1:0.25:40";
  for (const char* header : {"# DML-RULES v1", "# DML-RULES v2"}) {
    for (const std::string& line : {tree, net}) {
      EXPECT_FALSE(rule_from_line(line).has_value()) << line;
      std::stringstream stream(std::string(header) + "\nSR|2|0.9\n" + line);
      try {
        read_rules(stream);
        ADD_FAILURE() << header << " accepted " << line.substr(0, 2);
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("malformed rule at line 3"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

learners::Rule sample_cc() {
  learners::CorrelationChainRule rule;
  // Deliberately not in ascending id order: the chain is ordered and
  // serialization must preserve it (unlike the AR antecedent set).
  rule.chain = {12, 3, 7};
  rule.consequent = bgl::taxonomy().fatal_ids().front();
  rule.confidence = 0.42;
  rule.support = 0.31;
  rule.stage_window = 900;
  return learners::Rule{std::move(rule)};
}

TEST(RuleIo, CorrelationChainRoundTrip) {
  const auto rule = sample_cc();
  const auto parsed = rule_from_line(rule_to_line(rule));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->identity(), rule.identity());
  const auto* cc = parsed->as_correlation();
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->chain, (std::vector<CategoryId>{12, 3, 7}));
  EXPECT_EQ(cc->consequent, rule.as_correlation()->consequent);
  EXPECT_DOUBLE_EQ(cc->confidence, 0.42);
  EXPECT_DOUBLE_EQ(cc->support, 0.31);
  EXPECT_EQ(cc->stage_window, 900);
}

TEST(RuleIo, RejectsMalformedCorrelationLines) {
  const std::string fatal_name =
      bgl::taxonomy().category(bgl::taxonomy().fatal_ids().front()).name;
  // Non-positive stage window.
  EXPECT_FALSE(
      rule_from_line("CC|0.5|0.1|0|" + fatal_name + "|KERNDTLB").has_value());
  // Unknown stage / consequent names; short lines.
  EXPECT_FALSE(rule_from_line("CC|0.5|0.1|600|" + fatal_name +
                              "|no.such.category")
                   .has_value());
  EXPECT_FALSE(
      rule_from_line("CC|0.5|0.1|600|no.such.fatal|KERNDTLB").has_value());
  EXPECT_FALSE(rule_from_line("CC|0.5|0.1|600").has_value());
  // Empty chain.
  EXPECT_FALSE(
      rule_from_line("CC|0.5|0.1|600|" + fatal_name + "|").has_value());
}

TEST(RuleIo, MixedRepositoryRoundTripCoversEverySource) {
  // One rule from each serializable source in a single file: the v2
  // format round-trips a mixed repository exactly.
  KnowledgeRepository repo;
  repo.add(sample_ar());
  repo.add(sample_cc());
  repo.add(learners::Rule{
      learners::StatisticalRule{4, 0.99}});
  repo.add(sample_pd("weibull"));

  std::stringstream stream;
  write_rules(stream, repo);
  const std::string text = stream.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), "# DML-RULES v2");

  std::stringstream in(text);
  const auto loaded = read_rules(in);
  ASSERT_EQ(loaded.size(), repo.size());
  const auto churn = KnowledgeRepository::diff(repo, loaded);
  EXPECT_EQ(churn.added, 0u);
  EXPECT_EQ(churn.removed, 0u);
  // Source order survives too (dispatch precedence is insertion order).
  for (std::size_t i = 0; i < repo.rules().size(); ++i) {
    EXPECT_EQ(loaded.rules()[i].rule.source(), repo.rules()[i].rule.source());
  }
}

TEST(RuleIo, ReadsVersionOneFilesFromBeforeChains) {
  // A rule file written before the correlation learner existed: v1
  // header, no CC lines.  It must still load (version skew on restart).
  const auto ar_line = rule_to_line(sample_ar());
  std::stringstream stream("# DML-RULES v1\n" + ar_line + "\nSR|2|0.9\n");
  const auto repo = read_rules(stream);
  ASSERT_EQ(repo.size(), 2u);
  EXPECT_EQ(repo.rules()[0].rule.source(),
            learners::RuleSource::kAssociation);
  EXPECT_EQ(repo.rules()[1].rule.source(),
            learners::RuleSource::kStatistical);
}

TEST(RuleIo, RepositoryRoundTrip) {
  const auto& repo = testing::shared_repository();
  std::stringstream stream;
  write_rules(stream, repo);
  const auto loaded = read_rules(stream);
  ASSERT_EQ(loaded.size(), repo.size());
  const auto churn = KnowledgeRepository::diff(repo, loaded);
  EXPECT_EQ(churn.added, 0u);
  EXPECT_EQ(churn.removed, 0u);
  EXPECT_EQ(churn.unchanged, repo.size());
}

TEST(RuleIo, ReadRequiresHeader) {
  std::stringstream stream("SR|2|0.9\n");
  EXPECT_THROW(read_rules(stream), std::runtime_error);
}

TEST(RuleIo, ReadReportsLineNumber) {
  std::stringstream stream("# DML-RULES v1\nSR|2|0.9\ngarbage\n");
  try {
    read_rules(stream);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(RuleIo, ReadSkipsCommentsAndBlanks) {
  std::stringstream stream("# DML-RULES v1\n\n# comment\nSR|3|0.85\n");
  const auto repo = read_rules(stream);
  ASSERT_EQ(repo.size(), 1u);
  EXPECT_EQ(repo.rules()[0].rule.as_statistical()->k, 3);
}

TEST(RuleIo, LoadedRulesDriveThePredictorIdentically) {
  // A repository shipped through serialization must predict exactly like
  // the original.
  const auto& store = testing::shared_store();
  const auto& repo = testing::shared_repository();
  std::stringstream stream;
  write_rules(stream, repo);
  const auto loaded = read_rules(stream);

  const auto test_events = testing::weeks_of(store, 26, 30);
  predict::Predictor original(repo, testing::kWp);
  predict::Predictor reloaded(loaded, testing::kWp);
  const auto w1 = original.run(test_events, testing::kWp);
  const auto w2 = reloaded.run(test_events, testing::kWp);
  ASSERT_EQ(w1.size(), w2.size());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].issued_at, w2[i].issued_at);
    EXPECT_EQ(w1[i].deadline, w2[i].deadline);
    EXPECT_EQ(w1[i].category, w2[i].category);
    EXPECT_EQ(w1[i].source, w2[i].source);
  }
}

}  // namespace
}  // namespace dml::meta
