// Shared CLI plumbing for the two front ends, `dmlfp` and `dmlfpd`: the
// "--name value" flag parser, the --failpoint/--failpoint-seed arming
// helper and the engine flags both map onto a DriverConfig.  One
// definition so every front end accepts the same grammar.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/failpoint.hpp"
#include "common/string_util.hpp"
#include "online/config_file.hpp"
#include "online/driver.hpp"

namespace dml::tools {

/// The engine flags `dmlfp run` and `dmlfpd` share, each the command-line
/// form of one `--config` key (online::driver_settings()): a flag takes
/// exactly the values of its key, and a value-less one gives its key the
/// value `fixed`.  Applied in this order, so --no-correlation beats
/// --correlation.
struct EngineFlag {
  std::string_view name;
  std::string_view key;
  std::string_view fixed = {};
};
inline constexpr EngineFlag kEngineFlagRows[] = {
    {"window", "prediction_window"},
    {"training-weeks", "training_weeks"},
    {"retrain-weeks", "retrain_weeks"},
    {"mode", "mode"},
    {"no-reviser", "use_reviser", "false"},
    {"correlation", "enable_correlation", "true"},
    {"no-correlation", "enable_correlation", "false"},
    {"correlation-window", "correlation_window"},
    {"correlation-min-edge", "correlation_min_edge_confidence"}};

/// The flags driver_config_from_flags reads: --config and the engine
/// flags.
inline constexpr auto kEngineFlags = [] {
  std::array<std::string_view, std::size(kEngineFlagRows) + 1> names{"config"};
  std::ranges::transform(kEngineFlagRows, names.begin() + 1,
                         &EngineFlag::name);
  return names;
}();

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
      if (key == "help" || key == "profile" ||
          std::ranges::any_of(kEngineFlagRows, [&](const EngineFlag& f) {
            return !f.fixed.empty() && f.name == key;
          })) {
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

  /// Reads --NAME into `out` as a whole number in [lo, hi]; an absent
  /// flag leaves `out` alone.  Anything else prints "<who>: --NAME:
  /// expected ... in [lo, hi]" and returns false; the caller exits 2.
  template <typename T>
  bool read(const char* who, const std::string& name, T& out,
            std::type_identity_t<T> lo, std::type_identity_t<T> hi) const {
    const auto text = get(name);
    if (!text) return true;
    const std::string error = parse_in_range(*text, lo, hi, out);
    if (error.empty()) return true;
    std::fprintf(stderr, "%s: --%s: %s\n", who, name.c_str(), error.c_str());
    return false;
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
/// malformed spec or seed.
inline bool arm_failpoints(const Flags& flags, const char* who) {
  std::uint64_t seed = 0;
  if (!flags.read(who, "failpoint-seed", seed, 0, UINT64_MAX)) return false;
  if (flags.has("failpoint-seed")) {
    common::FailpointRegistry::instance().reseed(seed);
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

/// The engine flags of `dmlfp run` and `dmlfpd`: a --config file provides
/// the base, explicit flags override it.  Both front ends map the result
/// through online::sharded_config_from_driver, so the same flags give
/// the same warning multiset in batch replay and over the wire.  `who`
/// names the command for error messages.  Returns 0, or the exit status
/// for the error it printed: 1 for an unreadable or malformed --config,
/// 2 for a flag value its key refuses.
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
  for (const EngineFlag& flag : kEngineFlagRows) {
    const auto value = flags.get(std::string(flag.name));
    if (!value) continue;
    const std::string error = online::find_driver_setting(flag.key)->parse(
        config, flag.fixed.empty() ? *value : flag.fixed);
    if (!error.empty()) {
      std::fprintf(stderr, "%s: --%.*s: %s\n", who,
                   static_cast<int>(flag.name.size()), flag.name.data(),
                   error.c_str());
      return 2;
    }
  }
  return 0;
}

}  // namespace dml::tools
