// The engine-flag parser that `dmlfp run` and `dmlfpd` share
// (tools/support/flags.hpp): one argv yields one DriverConfig, whichever
// front end reads it.
#include <gtest/gtest.h>

#include <string>
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

}  // namespace
}  // namespace dml::tools
