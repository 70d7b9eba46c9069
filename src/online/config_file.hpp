// Key = value configuration files for the dynamic driver, so deployments
// can version their prediction settings ("dmlfp run --config prod.conf").
//
// Format: one `key = value` per line; '#' comments; unknown keys are
// errors (typos should not silently fall back to defaults).  Keys mirror
// the DriverConfig/MetaLearnerConfig/PredictorOptions fields:
//
//   prediction_window   = 300        # seconds
//   retrain_weeks       = 4
//   training_weeks      = 26
//   mode                = sliding    # sliding | whole | static
//   use_reviser         = true
//   min_roc             = 0.7
//   min_support         = 0.01
//   min_confidence      = 0.1
//   min_antecedent      = 2
//   statistical_threshold   = 0.8
//   distribution_threshold  = 0.6
//   pd_horizon_factor   = 6.0
//   location_scoped     = false
//   adaptive_window     = false
#pragma once

#include <istream>
#include <string>
#include <variant>

#include "online/driver.hpp"

namespace dml::online {

struct ConfigError {
  std::size_t line = 0;
  std::string message;
};

/// Parses a config stream into a DriverConfig (starting from defaults).
/// Returns the first error encountered, if any.
std::variant<DriverConfig, ConfigError> parse_driver_config(std::istream& in);

/// Renders a config back to text (every supported key, current values) —
/// `dmlfp` uses it to emit a template.
std::string render_driver_config(const DriverConfig& config);

}  // namespace dml::online
