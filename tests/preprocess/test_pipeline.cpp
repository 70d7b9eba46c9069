#include "preprocess/pipeline.hpp"

#include <gtest/gtest.h>

#include "common/failpoint.hpp"
#include "loggen/generator.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "support/test_fixtures.hpp"

namespace dml::preprocess {
namespace {

TEST(Pipeline, RecoversGroundTruthUniqueEvents) {
  // End-to-end: generator raw stream -> categorize -> filter should
  // recover (approximately) the generator's unique event list.
  const auto profile = testing::tiny_profile(3);
  loggen::LogGenerator generator(profile, 21);
  PreprocessPipeline pipeline(300);
  const auto ground_truth = generator.generate(pipeline);

  const auto& stats = pipeline.stats();
  EXPECT_EQ(stats.unclassified, 0u);
  ASSERT_GT(stats.unique_events, 0u);
  // The pipeline may slightly over- or under-merge (jitter beyond the
  // threshold; adjacent unique events of one category), but must land
  // within 15% of the truth.
  const double ratio = static_cast<double>(stats.unique_events) /
                       static_cast<double>(ground_truth.size());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(Pipeline, CompressionRateIsHighAtPaperThreshold) {
  // "which achieves above 98% compression rate for the logs" (§3.2) —
  // at reduced test scale the duplication factors shrink with
  // profile.scale, so demand a weaker but still strong bound.
  const auto profile = testing::tiny_profile(3);
  loggen::LogGenerator generator(profile, 23);
  PreprocessPipeline pipeline(300);
  generator.generate(pipeline);
  EXPECT_GT(pipeline.stats().compression_rate(), 0.80);
}

TEST(Pipeline, FatalFlagsSurviveThePipeline) {
  const auto profile = testing::tiny_profile(2);
  loggen::LogGenerator generator(profile, 25);
  PreprocessPipeline pipeline(300);
  const auto ground_truth = generator.generate(pipeline);
  std::size_t truth_fatals = 0;
  for (const auto& e : ground_truth) truth_fatals += e.fatal ? 1 : 0;
  std::size_t pipeline_fatals = 0;
  for (const auto& e : pipeline.events()) pipeline_fatals += e.fatal ? 1 : 0;
  ASSERT_GT(truth_fatals, 0u);
  // Straggler duplicates beyond the threshold create a few extra
  // "unique" fatals; at this test's scale (few dozen true fatals) the
  // proportional tolerance must be generous.
  EXPECT_GE(pipeline_fatals, truth_fatals);
  EXPECT_NEAR(static_cast<double>(pipeline_fatals),
              static_cast<double>(truth_fatals),
              static_cast<double>(truth_fatals) * 0.25);
}

TEST(Pipeline, TakeStoreProducesSortedStore) {
  const auto profile = testing::tiny_profile(1);
  loggen::LogGenerator generator(profile, 29);
  PreprocessPipeline pipeline(300);
  generator.generate(pipeline);
  const auto store = pipeline.take_store();
  EXPECT_EQ(store.size(), pipeline.stats().unique_events);
  EXPECT_LE(store.first_time(), store.last_time());
}

TEST(ThresholdSweep, CountsAreMonotoneInThreshold) {
  const auto profile = testing::tiny_profile(2);
  loggen::LogGenerator generator(profile, 31);
  ThresholdSweep sweep({0, 10, 60, 120, 200, 300, 400});
  generator.generate(sweep);
  for (std::size_t i = 1; i < sweep.thresholds().size(); ++i) {
    EXPECT_LE(sweep.stats_at(i).unique_events,
              sweep.stats_at(i - 1).unique_events)
        << "threshold " << sweep.thresholds()[i];
  }
  // Threshold 0 keeps every classified record.
  EXPECT_EQ(sweep.stats_at(0).unique_events,
            sweep.stats_at(0).raw_records - sweep.stats_at(0).unclassified);
}

TEST(ThresholdSweep, SelectsThresholdWhereCurveFlattens) {
  const auto profile = testing::tiny_profile(2);
  loggen::LogGenerator generator(profile, 33);
  ThresholdSweep sweep({0, 10, 60, 120, 200, 300, 400});
  generator.generate(sweep);
  const DurationSec chosen = sweep.select_threshold(0.05);
  // The iterative method must pick a non-trivial threshold, and with the
  // generator's jitter profile the curve flattens by a few minutes.
  EXPECT_GE(chosen, 10);
  EXPECT_LE(chosen, 400);
}

TEST(ThresholdSweep, RejectsEmptyThresholdList) {
  EXPECT_THROW(ThresholdSweep sweep({}), std::invalid_argument);
}

TEST(StreamingPipeline, PushFailpointDropSwallowsAndCounts) {
  // Arms the `preprocess.push` failpoint for real: an armed drop must
  // swallow the raw record before categorization (counted, no event),
  // and disarming must restore the normal chain.
  auto& registry = common::FailpointRegistry::instance();
  registry.reset();
  ASSERT_TRUE(registry.arm_from_string("preprocess.push=drop"));

  const auto& tax = bgl::taxonomy();
  const auto& cat = tax.category(tax.fatal_ids().front());
  bgl::RasRecord record;
  record.facility = cat.facility;
  record.severity = cat.severity;
  record.entry_data = cat.pattern + " [inst 12345678]";
  record.event_time = 1000;

  StreamingPipeline pipeline(300);
  EXPECT_FALSE(pipeline.push(record).has_value());
  EXPECT_EQ(pipeline.stats().dropped_by_failpoint, 1u);
  EXPECT_EQ(pipeline.stats().raw_records, 1u);
  EXPECT_EQ(pipeline.stats().unique_events, 0u);

  registry.reset();
  record.event_time = 2000;
  const auto survivor = pipeline.push(record);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->category, tax.fatal_ids().front());
  EXPECT_EQ(pipeline.stats().dropped_by_failpoint, 1u);
  EXPECT_EQ(pipeline.stats().unique_events, 1u);
}

}  // namespace
}  // namespace dml::preprocess
