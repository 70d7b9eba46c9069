// Cross-configuration invariant sweep: every combination of training
// mode, location scoping, the correlation expert, and the reviser must
// keep the driver's accounting identities intact and produce sane
// accuracy.
#include <gtest/gtest.h>

#include <tuple>

#include "online/driver.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

using SweepParam = std::tuple<TrainingMode, bool /*scoped*/,
                              bool /*correlation*/, bool /*reviser*/>;

class ConfigSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConfigSweep, AccountingInvariantsHold) {
  const auto [mode, scoped, correlation, reviser] = GetParam();
  DriverConfig config;
  config.mode = mode;
  config.training_weeks = 12;
  config.predictor.location_scoped = scoped;
  config.learner.enable_correlation = correlation;
  config.use_reviser = reviser;

  const auto result = DynamicDriver(config).run(testing::shared_store());
  ASSERT_FALSE(result.intervals.empty());
  for (const auto& interval : result.intervals) {
    // Confusion identities.
    EXPECT_EQ(interval.counts.true_positives +
                  interval.counts.false_negatives,
              interval.fatal_count);
    EXPECT_LE(interval.counts.false_positives, interval.warning_count);
    // Rule accounting.
    EXPECT_EQ(interval.rules_active,
              interval.rules_from_meta - interval.rules_removed_by_reviser);
    if (!reviser) {
      EXPECT_EQ(interval.rules_removed_by_reviser, 0u);
    }
    // Per-source Tp never exceeds the overall fatal count.
    for (const auto& source : interval.per_source) {
      EXPECT_LE(source.true_positives, interval.fatal_count);
    }
    // Metrics are probabilities.
    EXPECT_GE(interval.precision(), 0.0);
    EXPECT_LE(interval.precision(), 1.0);
    EXPECT_GE(interval.recall(), 0.0);
    EXPECT_LE(interval.recall(), 1.0);
  }
  // Every configuration still predicts *something* useful.
  EXPECT_GT(result.overall_recall(), 0.05);
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = std::string(to_string(std::get<0>(info.param)));
  name += std::get<1>(info.param) ? "_scoped" : "_global";
  // "_dtnn" is a historical label: the axis toggled the retired
  // classifier experts before it toggled correlation, and keeping the
  // label keeps the 24 instance names stable.
  name += std::get<2>(info.param) ? "_dtnn" : "_trio";
  name += std::get<3>(info.param) ? "_revised" : "_raw";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ConfigSweep,
    ::testing::Combine(::testing::Values(TrainingMode::kStatic,
                                         TrainingMode::kSlidingWindow,
                                         TrainingMode::kWholeHistory),
                       ::testing::Bool(),   // location scoped
                       ::testing::Bool(),   // correlation expert
                       ::testing::Bool()),  // reviser
    sweep_name);

}  // namespace
}  // namespace dml::online
