// Key = value configuration files for the dynamic driver, so deployments
// can version their prediction settings ("dmlfp run --config prod.conf").
//
// Format: one `key = value` per line; '#' comments; unknown keys are
// errors (typos should not silently fall back to defaults).  Keys mirror
// the DriverConfig/MetaLearnerConfig/PredictorOptions fields; `dmlfp
// config-template` lists them with their defaults.
#pragma once

#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "online/driver.hpp"

namespace dml::online {

struct ConfigError {
  std::size_t line = 0;
  std::string message;
};

/// One driver setting: its key, how a value is read (with its range) and
/// printed.  The file parser, the template and the engine flags of `dmlfp
/// run` and `dmlfpd` all read these rows.
struct DriverSetting {
  std::string_view key;
  /// Sets the key from `text`; returns "" or what the key accepts.
  std::string (*parse)(DriverConfig& config, std::string_view text);
  std::string (*render)(const DriverConfig& config);
};

/// Every setting, in `config-template` order.
std::span<const DriverSetting> driver_settings();

/// The setting with this key, or nullptr.
const DriverSetting* find_driver_setting(std::string_view key);

/// Parses a config stream into a DriverConfig (starting from defaults).
/// Returns the first error encountered, if any.
std::variant<DriverConfig, ConfigError> parse_driver_config(std::istream& in);

/// Renders a config back to text (every supported key, current values) —
/// `dmlfp` uses it to emit a template.
std::string render_driver_config(const DriverConfig& config);

}  // namespace dml::online
