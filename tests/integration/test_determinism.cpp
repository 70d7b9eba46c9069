// Whole-system determinism: identical seeds and configurations must
// produce bit-identical results across runs — the property every
// experiment in EXPERIMENTS.md silently relies on.
#include <gtest/gtest.h>

#include "online/driver.hpp"
#include "support/test_fixtures.hpp"

namespace dml {
namespace {

TEST(Determinism, DriverRunsAreIdentical) {
  online::DriverConfig config;
  config.training_weeks = 12;
  const auto& store = testing::shared_store();
  const auto a = online::DynamicDriver(config).run(store);
  const auto b = online::DynamicDriver(config).run(store);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].counts, b.intervals[i].counts) << i;
    EXPECT_EQ(a.intervals[i].warning_count, b.intervals[i].warning_count);
    EXPECT_EQ(a.intervals[i].rules_active, b.intervals[i].rules_active);
    EXPECT_EQ(a.intervals[i].churn_meta.added,
              b.intervals[i].churn_meta.added);
  }
}

TEST(Determinism, DriverIsDeterministicWithAllExtensionsOn) {
  online::DriverConfig config;
  config.training_weeks = 12;
  config.learner.enable_correlation = true;
  config.predictor.location_scoped = true;
  const auto& store = testing::shared_store();
  const auto a = online::DynamicDriver(config).run(store);
  const auto b = online::DynamicDriver(config).run(store);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].counts, b.intervals[i].counts) << i;
  }
}

TEST(Determinism, GeneratorIsIndependentOfPriorGenerators) {
  // Constructing and running one generator must not perturb another
  // (no hidden global RNG state).
  const auto profile = testing::tiny_profile(4);
  const auto baseline = loggen::LogGenerator(profile, 5)
                            .generate_unique_events();
  loggen::LogGenerator(profile, 999).generate_unique_events();  // interloper
  const auto again = loggen::LogGenerator(profile, 5)
                         .generate_unique_events();
  EXPECT_EQ(baseline, again);
}

}  // namespace
}  // namespace dml
