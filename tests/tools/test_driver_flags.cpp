// The engine-flag parser that `dmlfp run` and `dmlfpd` share
// (tools/support/flags.hpp): one argv yields one DriverConfig, whichever
// front end reads it, a flag takes exactly the values of its --config
// key, numbers are read whole and in range, and a flag no list names is
// rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
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

TEST(DriverFlags, EveryFlagNamesAKeyAndSwitchesSetTheirValue) {
  for (const EngineFlag& flag : kEngineFlagRows) {
    EXPECT_NE(online::find_driver_setting(flag.key), nullptr) << flag.name;
  }
  online::DriverConfig config;
  ASSERT_EQ(driver_config_from_flags(
                parse({"--no-reviser", "--correlation", "--no-correlation"}),
                "test", config),
            0);
  EXPECT_FALSE(config.use_reviser);
  EXPECT_FALSE(config.learner.enable_correlation);
}

// A flag accepts exactly what its --config key accepts: the same values
// parse to the same setting, and a value the key refuses is refused with
// the key's message, naming the flag, and status 2.
TEST(DriverFlags, ValuedFlagsAcceptExactlyWhatTheirKeyAccepts) {
  // Per flag: valid values, then non-numeric, trailing garbage and out of
  // range ones.
  const std::map<std::string_view, std::vector<std::string>> values = {
      {"window", {"900", "604800", "abc", "300x", "0", "604801", "-3"}},
      {"training-weeks", {"13", "520", "abc", "12x", "0", "521", "-3"}},
      {"retrain-weeks", {"1", "2", "abc", "4x", "0", "521", "4.0"}},
      {"mode", {"whole", "static", "abc", "wholex", "Whole", ""}},
      {"correlation-window", {"600", "86400", "abc", "600x", "0", "86401"}},
      {"correlation-min-edge", {"0.3", "1", "abc", "0.3x", "1.5", "-0.1"}}};
  for (const EngineFlag& flag : kEngineFlagRows) {
    if (!flag.fixed.empty()) continue;
    const auto it = values.find(flag.name);
    ASSERT_NE(it, values.end()) << "no cases for --" << flag.name;
    const std::string name = "--" + std::string(flag.name);
    for (const std::string& value : it->second) {
      std::stringstream file;
      file << flag.key << " = " << value << '\n';
      auto from_key = online::parse_driver_config(file);
      const bool key_accepts =
          std::holds_alternative<online::DriverConfig>(from_key);
      online::DriverConfig from_flag;
      ::testing::internal::CaptureStderr();
      const int status =
          driver_config_from_flags(parse({name, value}), "test", from_flag);
      const std::string stderr_text =
          ::testing::internal::GetCapturedStderr();
      if (key_accepts) {
        EXPECT_EQ(status, 0) << name << ' ' << value << ": " << stderr_text;
        EXPECT_EQ(online::render_driver_config(from_flag),
                  online::render_driver_config(
                      std::get<online::DriverConfig>(from_key)))
            << name << ' ' << value;
      } else {
        const std::string message =
            std::get<online::ConfigError>(from_key).message;
        EXPECT_EQ(status, 2) << name << ' ' << value;
        EXPECT_EQ(stderr_text, "test: " + name + message.substr(
                                                     flag.key.size()) +
                                   "\n")
            << value;
      }
    }
  }
}

TEST(DriverFlags, StrictNumbersRefuseMalformedValues) {
  long threads = 1;
  EXPECT_TRUE(parse({}).read("test", "threads", threads, 1, 1024));
  EXPECT_EQ(threads, 1);  // absent: the default stays
  EXPECT_TRUE(parse({"--threads", "4"}).read("test", "threads", threads, 1,
                                             1024));
  EXPECT_EQ(threads, 4);
  for (const char* bad : {"two", "2x", "0", "1025", "-1", "", "+2"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse({"--threads", bad}).read("test", "threads", threads,
                                                1, 1024))
        << bad;
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "test: --threads: expected an integer in [1, 1024]\n");
    EXPECT_EQ(threads, 4) << bad;
  }
  std::uint64_t seed = 0;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse({"--failpoint-seed", "-1"}).read(
      "test", "failpoint-seed", seed, 0, UINT64_MAX));
  ::testing::internal::GetCapturedStderr();
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
