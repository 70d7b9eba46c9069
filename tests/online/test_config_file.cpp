#include "online/config_file.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string_view>

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
      "correlation_window = 600\n"
      "correlation_min_edge_confidence = 0.3\n"
      "pd_horizon_factor = 2.5\n"
      "location_scoped = true\n");
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
  EXPECT_EQ(config.learner.correlation.graph.window, 600);
  EXPECT_DOUBLE_EQ(config.learner.correlation.miner.min_edge_confidence, 0.3);
  EXPECT_DOUBLE_EQ(config.predictor.pd_horizon_factor, 2.5);
  EXPECT_TRUE(config.predictor.location_scoped);
}

TEST(ConfigFile, CommentsAndBlanksIgnored) {
  const auto config = must_parse(
      "# full-line comment\n"
      "\n"
      "retrain_weeks = 8   # trailing comment\n");
  EXPECT_EQ(config.retrain_weeks, 8);
}

TEST(ConfigFile, UnknownKeyIsAnErrorWithLineNumber) {
  // A typo, the keys of the retired classifier experts, and the retired
  // adaptive prediction window's.
  for (const std::string key : {"retrian_weeks", "enable_decision_tree",
                                "enable_neural_net", "adaptive_window"}) {
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
  // A non-default value for every key; the numbers are all distinct, so
  // a key printed from the wrong member shows.
  const std::map<std::string_view, std::string_view> values = {
      {"prediction_window", "1800"},
      {"retrain_weeks", "2"},
      {"training_weeks", "13"},
      {"mode", "static"},
      {"use_reviser", "false"},
      {"min_roc", "0.55"},
      {"min_support", "0.02"},
      {"min_confidence", "0.2"},
      {"min_antecedent", "3"},
      {"statistical_threshold", "0.75"},
      {"distribution_threshold", "0.5"},
      {"enable_correlation", "true"},
      {"correlation_window", "600"},
      {"correlation_min_edge_confidence", "0.3"},
      {"pd_horizon_factor", "2.5"},
      {"location_scoped", "true"}};
  ASSERT_EQ(values.size(), driver_settings().size());
  std::string text;
  for (const auto& [key, value] : values) {
    text.append(key).append(" = ").append(value).append("\n");
  }
  const std::string rendered = render_driver_config(must_parse(text));
  const DriverConfig parsed = must_parse(rendered);
  const DriverConfig defaults;
  for (const DriverSetting& setting : driver_settings()) {
    ASSERT_TRUE(values.contains(setting.key)) << setting.key;
    EXPECT_NE(setting.render(defaults), values.at(setting.key));
    EXPECT_EQ(setting.render(parsed), values.at(setting.key)) << setting.key;
  }
  EXPECT_EQ(render_driver_config(parsed), rendered);
}

}  // namespace
}  // namespace dml::online
