// Shared CLI plumbing for the two front ends, `dmlfp` and `dmlfpd`: the
// "--name value" flag parser, the --failpoint/--failpoint-seed arming
// helper and the engine flags both map onto a DriverConfig.  One
// definition so every front end accepts the same grammar.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "common/failpoint.hpp"
#include "online/config_file.hpp"
#include "online/driver.hpp"

namespace dml::tools {

/// Minimal --flag value parser: flags are "--name value" pairs.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + key;
        return;
      }
      key = key.substr(2);
      // Boolean flags across the whole tool family; a value-less flag
      // unknown to one tool is still rejected by that tool's all_known()
      // check, so the union here is harmless.
      if (key == "no-reviser" || key == "help" || key == "profile" ||
          key == "correlation" || key == "no-correlation") {
        // Move-assigned: assigning the literal itself trips a GCC 12
        // -Wrestrict false positive in every including file.
        values_[key] = std::string("1");
        continue;
      }
      if (i + 1 >= argc) {
        error_ = "missing value for --" + key;
        return;
      }
      values_[key] = argv[++i];
    }
  }

  const std::string& error() const { return error_; }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& key, std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }

  long get_long(const std::string& key, long fallback) const {
    const auto value = get(key);
    return value ? std::strtol(value->c_str(), nullptr, 10) : fallback;
  }

  double get_double(const std::string& key, double fallback) const {
    const auto value = get(key);
    return value ? std::strtod(value->c_str(), nullptr) : fallback;
  }

  bool has(const std::string& key) const { return values_.contains(key); }

  /// Whether every flag given is one the command reads: its own names
  /// plus the shared lists it takes (kEngineFlags, kFailpointFlags).  At
  /// the first flag outside them, prints "<who>: unknown flag --NAME" and
  /// returns false; the caller exits 2.  A misspelt flag would otherwise
  /// be ignored and the command would run on the default.
  bool all_known(
      const char* who,
      std::initializer_list<std::span<const std::string_view>> accepted)
      const {
    for (const auto& entry : values_) {
      const std::string& name = entry.first;
      const bool known =
          std::ranges::any_of(accepted, [&](const auto& names) {
            return std::ranges::find(names, name) != names.end();
          });
      if (!known) {
        std::fprintf(stderr, "%s: unknown flag --%s\n", who, name.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

/// The flags arm_failpoints reads.
inline constexpr std::string_view kFailpointFlags[] = {"failpoint",
                                                       "failpoint-seed"};

/// Arms --failpoint/--failpoint-seed.  `who` names the command for
/// error messages ("dmlfp run", "dmlfpd", ...).  Returns false on a
/// malformed spec.
inline bool arm_failpoints(const Flags& flags, const char* who) {
  if (flags.has("failpoint-seed")) {
    common::FailpointRegistry::instance().reseed(
        static_cast<std::uint64_t>(flags.get_long("failpoint-seed", 0)));
  }
  const auto failpoints = flags.get("failpoint");
  if (!failpoints) return true;
  std::string_view rest = *failpoints;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const auto assignment = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    std::string error;
    if (!common::FailpointRegistry::instance().arm_from_string(assignment,
                                                               &error)) {
      std::fprintf(stderr, "%s: bad --failpoint '%.*s': %s\n", who,
                   static_cast<int>(assignment.size()), assignment.data(),
                   error.c_str());
      return false;
    }
  }
  return true;
}

/// The flags driver_config_from_flags reads: the engine flags `dmlfp
/// run` and `dmlfpd` share.
inline constexpr std::string_view kEngineFlags[] = {
    "config", "window", "training-weeks", "retrain-weeks", "mode",
    "no-reviser", "correlation", "no-correlation", "correlation-window",
    "correlation-min-edge"};

/// The engine flags of `dmlfp run` and `dmlfpd`: a --config file provides
/// the base, explicit flags override it.  Both front ends map the result
/// through online::sharded_config_from_driver, so the same flags give
/// the same warning multiset in batch replay and over the wire.  `who`
/// names the command for error messages.  Returns 0, or the exit status
/// for the error it printed: 1 for an unreadable or malformed --config,
/// 2 for an unknown --mode.
inline int driver_config_from_flags(const Flags& flags, const char* who,
                                    online::DriverConfig& config) {
  if (const auto config_path = flags.get("config")) {
    std::ifstream file(*config_path);
    if (!file) {
      std::fprintf(stderr, "%s: cannot open %s\n", who, config_path->c_str());
      return 1;
    }
    auto parsed = online::parse_driver_config(file);
    if (const auto* error = std::get_if<online::ConfigError>(&parsed)) {
      std::fprintf(stderr, "%s: %s:%zu: %s\n", who, config_path->c_str(),
                   error->line, error->message.c_str());
      return 1;
    }
    config = std::get<online::DriverConfig>(parsed);
  }
  config.prediction_window =
      flags.get_long("window", config.prediction_window);
  config.clock_tick = config.prediction_window;
  config.training_weeks = static_cast<int>(
      flags.get_long("training-weeks", config.training_weeks));
  config.retrain_weeks =
      static_cast<int>(flags.get_long("retrain-weeks", config.retrain_weeks));
  if (flags.has("no-reviser")) config.use_reviser = false;
  if (flags.has("correlation")) config.learner.enable_correlation = true;
  if (flags.has("no-correlation")) config.learner.enable_correlation = false;
  config.learner.correlation.graph.window = flags.get_long(
      "correlation-window", config.learner.correlation.graph.window);
  config.learner.correlation.miner.min_edge_confidence =
      flags.get_double("correlation-min-edge",
                       config.learner.correlation.miner.min_edge_confidence);
  const std::string mode =
      flags.get_or("mode", std::string(to_string(config.mode)));
  if (mode == "sliding") {
    config.mode = online::TrainingMode::kSlidingWindow;
  } else if (mode == "whole") {
    config.mode = online::TrainingMode::kWholeHistory;
  } else if (mode == "static") {
    config.mode = online::TrainingMode::kStatic;
  } else {
    std::fprintf(stderr, "%s: unknown mode '%s'\n", who, mode.c_str());
    return 2;
  }
  return 0;
}

}  // namespace dml::tools
