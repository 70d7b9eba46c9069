// FailpointRegistry: spec grammar, deterministic per-name streams,
// trigger gating (after/max/p), actions, and counter bookkeeping.
#include "common/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/test_fixtures.hpp"

namespace dml::common {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().reset(); }
  void TearDown() override { FailpointRegistry::instance().reset(); }
};

TEST_F(FailpointTest, SpecParserAcceptsTheDocumentedGrammar) {
  auto spec = parse_failpoint_spec("throw");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->action, FailAction::kThrow);
  EXPECT_DOUBLE_EQ(spec->probability, 1.0);

  spec = parse_failpoint_spec("drop:p=0.25");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->action, FailAction::kDrop);
  EXPECT_DOUBLE_EQ(spec->probability, 0.25);

  spec = parse_failpoint_spec("delay:ms=7:p=0.5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->action, FailAction::kDelay);
  EXPECT_EQ(spec->delay_ms, 7u);
  EXPECT_DOUBLE_EQ(spec->probability, 0.5);

  spec = parse_failpoint_spec("throw:after=100:max=2");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->after, 100u);
  EXPECT_EQ(spec->max_triggers, 2u);

  spec = parse_failpoint_spec("off");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->action, FailAction::kOff);
}

TEST_F(FailpointTest, SpecParserRejectsMalformedInputWithReason) {
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("", &error).has_value());
  EXPECT_NE(error.find("empty"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("explode", &error).has_value());
  EXPECT_NE(error.find("unknown failpoint action"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("drop:p=1.5", &error).has_value());
  EXPECT_NE(error.find("probability"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("drop:p", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("drop:banana=1", &error).has_value());
  EXPECT_NE(error.find("unknown failpoint parameter"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("delay:ms=-3", &error).has_value());
}

TEST_F(FailpointTest, SpecParserRejectsNegativeProbability) {
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("drop:p=-0.25", &error).has_value());
  EXPECT_NE(error.find("probability in [0, 1]"), std::string::npos);
}

TEST_F(FailpointTest, SpecParserRejectsEmptyParameterToken) {
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("throw::p=1", &error).has_value());
  EXPECT_NE(error.find("empty failpoint parameter"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("drop:", &error).has_value());
  EXPECT_NE(error.find("empty failpoint parameter"), std::string::npos);
}

TEST_F(FailpointTest, SpecParserRejectsMissingValue) {
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("drop:p=", &error).has_value());
  EXPECT_NE(error.find("'p' is missing a value"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("delay:ms=", &error).has_value());
  EXPECT_NE(error.find("'ms' is missing a value"), std::string::npos);
}

TEST_F(FailpointTest, SpecParserRejectsDuplicateParameters) {
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("drop:p=0.5:p=0.9", &error).has_value());
  EXPECT_NE(error.find("duplicate failpoint parameter 'p'"),
            std::string::npos);

  EXPECT_FALSE(
      parse_failpoint_spec("delay:ms=5:after=1:ms=9", &error).has_value());
  EXPECT_NE(error.find("duplicate failpoint parameter 'ms'"),
            std::string::npos);
}

TEST_F(FailpointTest, SpecParserErrorsPointAtTheOffendingCharacter) {
  // The diagnostic quotes the spec and carets the exact offset of the
  // rejected token or value.
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("drop:p=1.5", &error).has_value());
  EXPECT_NE(error.find("\n  drop:p=1.5\n"), std::string::npos);
  EXPECT_NE(error.find("\n         ^"), std::string::npos);

  EXPECT_FALSE(parse_failpoint_spec("drop:banana=1", &error).has_value());
  EXPECT_NE(error.find("\n  drop:banana=1\n"), std::string::npos);
  EXPECT_NE(error.find("\n       ^"), std::string::npos);
}

TEST_F(FailpointTest, UnarmedHookIsOffAndCountsNothing) {
  EXPECT_EQ(failpoint("nothing.armed"), FailAction::kOff);
  EXPECT_EQ(FailpointRegistry::instance().stats("nothing.armed").evaluations,
            0u);
}

TEST_F(FailpointTest, ThrowActionRaisesFailpointErrorWithTheName) {
  auto& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.arm_from_string("unit.test=throw"));
  try {
    failpoint("unit.test");
    FAIL() << "failpoint did not throw";
  } catch (const FailpointError& e) {
    EXPECT_EQ(e.name(), "unit.test");
    EXPECT_NE(std::string(e.what()).find("unit.test"), std::string::npos);
  }
  EXPECT_EQ(registry.stats("unit.test").triggers, 1u);
}

TEST_F(FailpointTest, ArmedNameDoesNotAffectOtherNames) {
  auto& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.arm_from_string("unit.a=throw"));
  EXPECT_EQ(failpoint("unit.b"), FailAction::kOff);
  EXPECT_THROW(failpoint("unit.a"), FailpointError);
}

TEST_F(FailpointTest, AfterAndMaxGateTheTriggerWindow) {
  auto& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.arm_from_string("unit.gate=drop:after=3:max=2"));
  int drops = 0;
  for (int i = 0; i < 10; ++i) {
    if (failpoint("unit.gate") == FailAction::kDrop) ++drops;
  }
  // Evaluations 1-3 pass (after=3), 4-5 drop (max=2), the rest pass.
  EXPECT_EQ(drops, 2);
  const auto stats = registry.stats("unit.gate");
  EXPECT_EQ(stats.evaluations, 10u);
  EXPECT_EQ(stats.triggers, 2u);
}

/// Arms `unit.prob=drop:p=0.3` under `seed` and returns the 200-draw
/// trigger pattern as a 0/1 string.
std::string trigger_pattern(std::uint64_t seed) {
  auto& registry = FailpointRegistry::instance();
  registry.reset();
  registry.reseed(seed);
  EXPECT_TRUE(registry.arm_from_string("unit.prob=drop:p=0.3"));
  std::string pattern;
  for (int i = 0; i < 200; ++i) {
    pattern += failpoint("unit.prob") == FailAction::kDrop ? '1' : '0';
  }
  return pattern;
}

TEST_F(FailpointTest, ProbabilisticTriggersAreDeterministicPerSeed) {
  const std::string first = trigger_pattern(42);
  EXPECT_EQ(trigger_pattern(42), first);  // same seed, same sequence
  const std::string other = trigger_pattern(43);
  EXPECT_NE(other, first);  // different seed, different sequence
  // ~30% of 200 evaluations should trigger; allow a wide band.
  const auto ones =
      static_cast<int>(std::count(other.begin(), other.end(), '1'));
  EXPECT_GT(ones, 30);
  EXPECT_LT(ones, 90);
}

TEST_F(FailpointTest, DistinctNamesDrawFromIndependentStreams) {
  auto& registry = FailpointRegistry::instance();
  registry.reseed(7);
  ASSERT_TRUE(registry.arm_from_string("unit.x=drop:p=0.5"));
  ASSERT_TRUE(registry.arm_from_string("unit.y=drop:p=0.5"));
  std::string x, y;
  for (int i = 0; i < 100; ++i) {
    x += failpoint("unit.x") == FailAction::kDrop ? '1' : '0';
    y += failpoint("unit.y") == FailAction::kDrop ? '1' : '0';
  }
  EXPECT_NE(x, y);
}

TEST_F(FailpointTest, DelayActionSleepsRoughlyTheConfiguredTime) {
  auto& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.arm_from_string("unit.delay=delay:ms=20"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(failpoint("unit.delay"), FailAction::kDelay);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 15);  // sleep_for may round, but not downward by much
}

TEST_F(FailpointTest, DisarmStopsFiringButKeepsCounters) {
  auto& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.arm_from_string("unit.off=drop"));
  EXPECT_EQ(failpoint("unit.off"), FailAction::kDrop);
  registry.disarm("unit.off");
  EXPECT_EQ(failpoint("unit.off"), FailAction::kOff);
  const auto stats = registry.stats("unit.off");
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.triggers, 1u);
  EXPECT_FALSE(registry.any_armed());
}

TEST_F(FailpointTest, AllListsEveryArmedNameSinceReset) {
  auto& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.arm_from_string("unit.one=drop"));
  ASSERT_TRUE(registry.arm_from_string("unit.two=off"));
  const auto all = registry.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "unit.one");
  EXPECT_EQ(all[1].first, "unit.two");
  registry.reset();
  EXPECT_TRUE(registry.all().empty());
}

TEST_F(FailpointTest, ArmFromStringRejectsMissingName) {
  std::string error;
  EXPECT_FALSE(
      FailpointRegistry::instance().arm_from_string("=throw", &error));
  EXPECT_NE(error.find("name=spec"), std::string::npos);
  EXPECT_FALSE(
      FailpointRegistry::instance().arm_from_string("justaname", &error));
}

TEST_F(FailpointTest, MutatedSpecsAreRefusedWithADiagnosticOrAccepted) {
  // 1-8 random bytes overwritten in valid name=spec assignments: each is
  // either refused with a message or accepted as a well-formed spec,
  // never a crash.
  Rng rng(testing::fuzz_seed(2902));
  const std::vector<std::string> valid = {
      "preprocess.push=throw",
      "engine.feed=drop:p=0.25",
      "shard.worker=delay:ms=7:p=0.5",
      "net.read=throw:after=100:max=2",
      "storage.append=corrupt:p=1:after=3",
      "net.accept=off",
  };
  auto& registry = FailpointRegistry::instance();
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string assignment = valid[rng.next_u64() % valid.size()];
    const std::size_t flips = 1 + rng.next_u64() % 8;
    for (std::size_t i = 0; i < flips; ++i) {
      assignment[rng.next_u64() % assignment.size()] =
          static_cast<char>(rng.next_u64());
    }
    std::string error;
    if (registry.arm_from_string(assignment, &error)) {
      ++accepted;
      const auto spec =
          parse_failpoint_spec(assignment.substr(assignment.find('=') + 1));
      ASSERT_TRUE(spec.has_value()) << assignment;
      EXPECT_TRUE(spec->probability >= 0.0 && spec->probability <= 1.0)
          << assignment;
    } else {
      ++refused;
      EXPECT_FALSE(error.empty()) << assignment;
    }
    registry.reset();
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  // NaN passes a range check written as (p < 0 || p > 1).
  std::string error;
  EXPECT_FALSE(parse_failpoint_spec("drop:p=nan", &error).has_value());
  EXPECT_NE(error.find("probability"), std::string::npos);
}

}  // namespace
}  // namespace dml::common
