#include "online/config_file.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>

#include "common/string_util.hpp"

namespace dml::online {
namespace {

std::optional<double> parse_double(std::string_view s) {
  char buf[64];
  if (s.size() >= sizeof(buf) || s.empty()) return std::nullopt;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + s.size()) return std::nullopt;
  return value;
}

std::optional<long> parse_long(std::string_view s) {
  long value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<bool> parse_bool(std::string_view s) {
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  return std::nullopt;
}

/// Per-key setter; returns an error message or empty on success.
using Setter =
    std::function<std::string(DriverConfig&, std::string_view value)>;

std::string set_long(std::string_view value, long lo, long hi, long* out) {
  const auto parsed = parse_long(value);
  if (!parsed || *parsed < lo || *parsed > hi) {
    return "expected an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  }
  *out = *parsed;
  return {};
}

std::string set_double(std::string_view value, double lo, double hi,
                       double* out) {
  const auto parsed = parse_double(value);
  if (!parsed || *parsed < lo || *parsed > hi) {
    return "expected a number in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  }
  *out = *parsed;
  return {};
}

std::string set_bool(std::string_view value, bool* out) {
  const auto parsed = parse_bool(value);
  if (!parsed) return "expected true/false";
  *out = *parsed;
  return {};
}

const std::map<std::string, Setter, std::less<>>& setters() {
  static const std::map<std::string, Setter, std::less<>> table = {
      {"prediction_window",
       [](DriverConfig& c, std::string_view v) {
         long seconds = 0;
         auto error = set_long(v, 1, 7 * 86400, &seconds);
         if (error.empty()) {
           c.prediction_window = seconds;
           c.clock_tick = seconds;
         }
         return error;
       }},
      {"retrain_weeks",
       [](DriverConfig& c, std::string_view v) {
         long weeks = 0;
         auto error = set_long(v, 1, 520, &weeks);
         if (error.empty()) c.retrain_weeks = static_cast<int>(weeks);
         return error;
       }},
      {"training_weeks",
       [](DriverConfig& c, std::string_view v) {
         long weeks = 0;
         auto error = set_long(v, 1, 520, &weeks);
         if (error.empty()) c.training_weeks = static_cast<int>(weeks);
         return error;
       }},
      {"mode",
       [](DriverConfig& c, std::string_view v) -> std::string {
         if (v == "sliding") {
           c.mode = TrainingMode::kSlidingWindow;
         } else if (v == "whole") {
           c.mode = TrainingMode::kWholeHistory;
         } else if (v == "static") {
           c.mode = TrainingMode::kStatic;
         } else {
           return "expected sliding | whole | static";
         }
         return {};
       }},
      {"use_reviser",
       [](DriverConfig& c, std::string_view v) {
         return set_bool(v, &c.use_reviser);
       }},
      {"min_roc",
       [](DriverConfig& c, std::string_view v) {
         return set_double(v, 0.0, 1.5, &c.reviser.min_roc);
       }},
      {"min_support",
       [](DriverConfig& c, std::string_view v) {
         return set_double(v, 0.0, 1.0, &c.learner.association.min_support);
       }},
      {"min_confidence",
       [](DriverConfig& c, std::string_view v) {
         return set_double(v, 0.0, 1.0,
                           &c.learner.association.min_confidence);
       }},
      {"min_antecedent",
       [](DriverConfig& c, std::string_view v) {
         long n = 0;
         auto error = set_long(v, 1, 8, &n);
         if (error.empty()) {
           c.learner.association.min_antecedent =
               static_cast<std::size_t>(n);
         }
         return error;
       }},
      {"statistical_threshold",
       [](DriverConfig& c, std::string_view v) {
         return set_double(v, 0.0, 1.0,
                           &c.learner.statistical.min_probability);
       }},
      {"distribution_threshold",
       [](DriverConfig& c, std::string_view v) {
         return set_double(v, 0.0, 0.999,
                           &c.learner.distribution.cdf_threshold);
       }},
      {"enable_correlation",
       [](DriverConfig& c, std::string_view v) {
         return set_bool(v, &c.learner.enable_correlation);
       }},
      {"correlation_window",
       [](DriverConfig& c, std::string_view v) {
         long n = 0;
         auto error = set_long(v, 1, 86400, &n);
         if (error.empty()) {
           c.learner.correlation.graph.window = n;
         }
         return error;
       }},
      {"correlation_min_edge_confidence",
       [](DriverConfig& c, std::string_view v) {
         return set_double(
             v, 0.0, 1.0,
             &c.learner.correlation.miner.min_edge_confidence);
       }},
      {"pd_horizon_factor",
       [](DriverConfig& c, std::string_view v) {
         return set_double(v, 0.0, 100.0, &c.predictor.pd_horizon_factor);
       }},
      {"location_scoped",
       [](DriverConfig& c, std::string_view v) {
         return set_bool(v, &c.predictor.location_scoped);
       }},
      {"adaptive_window",
       [](DriverConfig& c, std::string_view v) {
         return set_bool(v, &c.adaptive_window);
       }},
  };
  return table;
}

}  // namespace

std::variant<DriverConfig, ConfigError> parse_driver_config(
    std::istream& in) {
  DriverConfig config;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = trim(line);
    const std::size_t comment = view.find('#');
    if (comment != std::string_view::npos) {
      view = trim(view.substr(0, comment));
    }
    if (view.empty()) continue;
    const std::size_t eq = view.find('=');
    if (eq == std::string_view::npos) {
      return ConfigError{line_number, "expected 'key = value'"};
    }
    const std::string_view key = trim(view.substr(0, eq));
    const std::string_view value = trim(view.substr(eq + 1));
    const auto it = setters().find(key);
    if (it == setters().end()) {
      return ConfigError{line_number,
                         "unknown key '" + std::string(key) + "'"};
    }
    const std::string error = it->second(config, value);
    if (!error.empty()) {
      return ConfigError{line_number,
                         std::string(key) + ": " + error};
    }
  }
  return config;
}

std::string render_driver_config(const DriverConfig& config) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "# dmlfp driver configuration\n"
      "prediction_window = %lld\n"
      "retrain_weeks = %d\n"
      "training_weeks = %d\n"
      "mode = %s\n"
      "use_reviser = %s\n"
      "min_roc = %g\n"
      "min_support = %g\n"
      "min_confidence = %g\n"
      "min_antecedent = %zu\n"
      "statistical_threshold = %g\n"
      "distribution_threshold = %g\n"
      "enable_correlation = %s\n"
      "correlation_window = %lld\n"
      "correlation_min_edge_confidence = %g\n"
      "pd_horizon_factor = %g\n"
      "location_scoped = %s\n"
      "adaptive_window = %s\n",
      static_cast<long long>(config.prediction_window), config.retrain_weeks,
      config.training_weeks, std::string(to_string(config.mode)).c_str(),
      config.use_reviser ? "true" : "false", config.reviser.min_roc,
      config.learner.association.min_support,
      config.learner.association.min_confidence,
      config.learner.association.min_antecedent,
      config.learner.statistical.min_probability,
      config.learner.distribution.cdf_threshold,
      config.learner.enable_correlation ? "true" : "false",
      static_cast<long long>(config.learner.correlation.graph.window),
      config.learner.correlation.miner.min_edge_confidence,
      config.predictor.pd_horizon_factor,
      config.predictor.location_scoped ? "true" : "false",
      config.adaptive_window ? "true" : "false");
  return buf;
}

}  // namespace dml::online
