#include "online/config_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace dml::online {
namespace {

DriverConfig must_parse(const std::string& text) {
  std::stringstream stream(text);
  auto result = parse_driver_config(stream);
  const auto* error = std::get_if<ConfigError>(&result);
  EXPECT_EQ(error, nullptr)
      << (error ? std::to_string(error->line) + ": " + error->message : "");
  return std::get<DriverConfig>(result);
}

ConfigError must_fail(const std::string& text) {
  std::stringstream stream(text);
  auto result = parse_driver_config(stream);
  const auto* error = std::get_if<ConfigError>(&result);
  EXPECT_NE(error, nullptr);
  return error ? *error : ConfigError{};
}

TEST(ConfigFile, EmptyInputYieldsDefaults) {
  const auto config = must_parse("");
  const DriverConfig defaults;
  EXPECT_EQ(config.prediction_window, defaults.prediction_window);
  EXPECT_EQ(config.retrain_weeks, defaults.retrain_weeks);
  EXPECT_EQ(config.mode, defaults.mode);
  EXPECT_EQ(config.use_reviser, defaults.use_reviser);
}

TEST(ConfigFile, ParsesEveryKey) {
  const auto config = must_parse(
      "prediction_window = 900\n"
      "retrain_weeks = 2\n"
      "training_weeks = 13\n"
      "mode = whole\n"
      "use_reviser = false\n"
      "min_roc = 0.5\n"
      "min_support = 0.02\n"
      "min_confidence = 0.2\n"
      "min_antecedent = 1\n"
      "statistical_threshold = 0.75\n"
      "distribution_threshold = 0.5\n"
      "enable_correlation = true\n"
      "pd_horizon_factor = 2.5\n"
      "location_scoped = true\n"
      "adaptive_window = true\n");
  EXPECT_EQ(config.prediction_window, 900);
  EXPECT_EQ(config.clock_tick, 900);  // follows the window
  EXPECT_EQ(config.retrain_weeks, 2);
  EXPECT_EQ(config.training_weeks, 13);
  EXPECT_EQ(config.mode, TrainingMode::kWholeHistory);
  EXPECT_FALSE(config.use_reviser);
  EXPECT_DOUBLE_EQ(config.reviser.min_roc, 0.5);
  EXPECT_DOUBLE_EQ(config.learner.association.min_support, 0.02);
  EXPECT_DOUBLE_EQ(config.learner.association.min_confidence, 0.2);
  EXPECT_EQ(config.learner.association.min_antecedent, 1u);
  EXPECT_DOUBLE_EQ(config.learner.statistical.min_probability, 0.75);
  EXPECT_DOUBLE_EQ(config.learner.distribution.cdf_threshold, 0.5);
  EXPECT_TRUE(config.learner.enable_correlation);
  EXPECT_DOUBLE_EQ(config.predictor.pd_horizon_factor, 2.5);
  EXPECT_TRUE(config.predictor.location_scoped);
  EXPECT_TRUE(config.adaptive_window);
}

TEST(ConfigFile, CommentsAndBlanksIgnored) {
  const auto config = must_parse(
      "# full-line comment\n"
      "\n"
      "retrain_weeks = 8   # trailing comment\n");
  EXPECT_EQ(config.retrain_weeks, 8);
}

TEST(ConfigFile, UnknownKeyIsAnErrorWithLineNumber) {
  // A typo, and the keys of the retired classifier experts.
  for (const std::string key :
       {"retrian_weeks", "enable_decision_tree", "enable_neural_net"}) {
    const auto error = must_fail("retrain_weeks = 4\n" + key + " = 2\n");
    EXPECT_EQ(error.line, 2u) << key;
    EXPECT_NE(error.message.find("unknown key '" + key + "'"),
              std::string::npos)
        << error.message;
  }
}

TEST(ConfigFile, MalformedLineIsAnError) {
  EXPECT_EQ(must_fail("just some words\n").line, 1u);
}

TEST(ConfigFile, OutOfRangeValuesRejected) {
  EXPECT_EQ(must_fail("retrain_weeks = 0\n").line, 1u);
  EXPECT_EQ(must_fail("min_roc = 7\n").line, 1u);
  EXPECT_EQ(must_fail("prediction_window = -5\n").line, 1u);
  EXPECT_EQ(must_fail("mode = dynamic\n").line, 1u);
  EXPECT_EQ(must_fail("use_reviser = maybe\n").line, 1u);
}

TEST(ConfigFile, RenderParseRoundTrip) {
  DriverConfig config;
  config.prediction_window = 1800;
  config.clock_tick = 1800;
  config.retrain_weeks = 2;
  config.mode = TrainingMode::kStatic;
  config.learner.enable_correlation = true;
  config.predictor.location_scoped = true;

  std::stringstream stream(render_driver_config(config));
  auto result = parse_driver_config(stream);
  ASSERT_TRUE(std::holds_alternative<DriverConfig>(result));
  const auto& parsed = std::get<DriverConfig>(result);
  EXPECT_EQ(parsed.prediction_window, 1800);
  EXPECT_EQ(parsed.retrain_weeks, 2);
  EXPECT_EQ(parsed.mode, TrainingMode::kStatic);
  EXPECT_TRUE(parsed.learner.enable_correlation);
  EXPECT_TRUE(parsed.predictor.location_scoped);
}

}  // namespace
}  // namespace dml::online
