#include "online/config_file.hpp"

#include <algorithm>
#include <iterator>
#include <type_traits>

#include "common/string_util.hpp"

namespace dml::online {
namespace {

std::string parse_value(std::string_view text, bool& out) {
  if (text == "true" || text == "1" || text == "yes") {
    out = true;
  } else if (text == "false" || text == "0" || text == "no") {
    out = false;
  } else {
    return "expected true/false";
  }
  return {};
}

std::string parse_value(std::string_view text, TrainingMode& out) {
  for (const TrainingMode mode :
       {TrainingMode::kSlidingWindow, TrainingMode::kWholeHistory,
        TrainingMode::kStatic}) {
    if (text == to_string(mode)) {
      out = mode;
      return {};
    }
  }
  return "expected sliding | whole | static";
}

template <typename T>
std::string render_value(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, TrainingMode>) {
    return std::string(to_string(value));
  } else {
    return format_number(value);
  }
}

/// The row of the member `Field` reaches: `Field` is a captureless
/// `[](auto& c) -> auto& { return c.member; }`, called on a DriverConfig&
/// to parse and on a const one to print.  A number takes [Range...].
template <auto... Range, typename Field>
constexpr DriverSetting row(std::string_view key, Field) {
  return {key,
          [](DriverConfig& c, std::string_view text) {
            auto& field = Field{}(c);
            if constexpr (sizeof...(Range) == 2) {
              using T = std::remove_reference_t<decltype(field)>;
              return parse_in_range<T>(text, Range..., field);
            } else {
              return parse_value(text, field);
            }
          },
          [](const DriverConfig& c) { return render_value(Field{}(c)); }};
}

constexpr DriverSetting kSettings[] = {
    {"prediction_window",
     [](DriverConfig& c, std::string_view text) {
       auto error = parse_in_range(text, 1, 7 * 86400, c.prediction_window);
       if (error.empty()) c.clock_tick = c.prediction_window;
       return error;
     },
     [](const DriverConfig& c) { return render_value(c.prediction_window); }},
    row<1, 520>("retrain_weeks",
                [](auto& c) -> auto& { return c.retrain_weeks; }),
    row<1, 520>("training_weeks",
                [](auto& c) -> auto& { return c.training_weeks; }),
    row("mode", [](auto& c) -> auto& { return c.mode; }),
    row("use_reviser", [](auto& c) -> auto& { return c.use_reviser; }),
    row<0, 1.5>("min_roc",
                [](auto& c) -> auto& { return c.reviser.min_roc; }),
    row<0, 1>("min_support", [](auto& c) -> auto& {
      return c.learner.association.min_support;
    }),
    row<0, 1>("min_confidence", [](auto& c) -> auto& {
      return c.learner.association.min_confidence;
    }),
    row<1, 8>("min_antecedent", [](auto& c) -> auto& {
      return c.learner.association.min_antecedent;
    }),
    row<0, 1>("statistical_threshold", [](auto& c) -> auto& {
      return c.learner.statistical.min_probability;
    }),
    row<0, 0.999>("distribution_threshold", [](auto& c) -> auto& {
      return c.learner.distribution.cdf_threshold;
    }),
    row("enable_correlation",
        [](auto& c) -> auto& { return c.learner.enable_correlation; }),
    row<1, 86400>("correlation_window", [](auto& c) -> auto& {
      return c.learner.correlation.graph.window;
    }),
    row<0, 1>("correlation_min_edge_confidence", [](auto& c) -> auto& {
      return c.learner.correlation.miner.min_edge_confidence;
    }),
    row<0, 100>("pd_horizon_factor", [](auto& c) -> auto& {
      return c.predictor.pd_horizon_factor;
    }),
    row("location_scoped",
        [](auto& c) -> auto& { return c.predictor.location_scoped; }),
};

}  // namespace

std::span<const DriverSetting> driver_settings() { return kSettings; }

const DriverSetting* find_driver_setting(std::string_view key) {
  const auto* it = std::ranges::find(kSettings, key, &DriverSetting::key);
  return it == std::end(kSettings) ? nullptr : it;
}

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
    const DriverSetting* setting = find_driver_setting(key);
    if (setting == nullptr) {
      return ConfigError{line_number,
                         "unknown key '" + std::string(key) + "'"};
    }
    const std::string error = setting->parse(config, value);
    if (!error.empty()) {
      return ConfigError{line_number,
                         std::string(key) + ": " + error};
    }
  }
  return config;
}

std::string render_driver_config(const DriverConfig& config) {
  std::string out = "# dmlfp driver configuration\n";
  for (const DriverSetting& setting : kSettings) {
    out.append(setting.key).append(" = ").append(setting.render(config));
    out += '\n';
  }
  return out;
}

}  // namespace dml::online
