// The engine-flag parser that `dmlfp run` and `dmlfpd` share
// (tools/support/flags.hpp): one argv yields one DriverConfig, whichever
// front end reads it, and a flag no list names is rejected.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "support/flags.hpp"

namespace dml::tools {
namespace {

Flags parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(DriverFlags, CorrelationAndModeFlagsReachTheDriverConfig) {
  const Flags flags =
      parse({"--correlation", "--correlation-window", "900",
             "--correlation-min-edge", "0.4", "--mode", "whole"});
  ASSERT_TRUE(flags.error().empty()) << flags.error();
  online::DriverConfig config;
  ASSERT_EQ(driver_config_from_flags(flags, "test", config), 0);
  EXPECT_TRUE(config.learner.enable_correlation);
  EXPECT_EQ(config.learner.correlation.graph.window, 900);
  EXPECT_DOUBLE_EQ(config.learner.correlation.miner.min_edge_confidence, 0.4);
  EXPECT_EQ(config.mode, online::TrainingMode::kWholeHistory);
}

TEST(DriverFlags, RejectsUnknownModeAndUnreadableConfig) {
  online::DriverConfig config;
  EXPECT_EQ(driver_config_from_flags(parse({"--mode", "weekly"}), "test",
                                     config),
            2);
  EXPECT_EQ(driver_config_from_flags(
                parse({"--config", "/nonexistent/dmlfp.conf"}), "test",
                config),
            1);
}

TEST(DriverFlags, UnknownFlagIsRejectedByName) {
  constexpr std::string_view kRunFlags[] = {"log"};
  const Flags typo = parse({"--log", "x", "--retrain-week", "1"});
  ASSERT_TRUE(typo.error().empty()) << typo.error();
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(typo.all_known("test", {kRunFlags, kEngineFlags}));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "test: unknown flag --retrain-week"),
            std::string::npos);

  const Flags known = parse({"--log", "x", "--retrain-weeks", "1",
                             "--no-reviser", "--failpoint", "a=off"});
  EXPECT_TRUE(
      known.all_known("test", {kRunFlags, kEngineFlags, kFailpointFlags}));
  // A shared list only counts where the command takes it.
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(known.all_known("test", {kRunFlags, kEngineFlags}));
  ::testing::internal::GetCapturedStderr();
}

}  // namespace
}  // namespace dml::tools
