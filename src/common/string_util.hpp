// Small string helpers used by the log text format, report printers and
// the parsers of every text input (config files, rule files, failpoint
// specs, command-line flags).
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dml {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> split(std::string_view text, char delim);

std::string_view trim(std::string_view text);

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII.
std::string to_lower(std::string_view text);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// Parses the whole of `text` as a T, or nullopt if any of it is left
/// over or the value does not fit.  Integers use std::from_chars (no
/// leading blanks or '+', no sign for unsigned T); double uses strtod's
/// grammar on inputs shorter than 64 characters.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  if constexpr (std::is_floating_point_v<T>) {
    // strtod: std::from_chars<double> is missing on some libstdc++ builds.
    char buf[64];
    if (text.empty() || text.size() >= sizeof(buf)) return std::nullopt;
    text.copy(buf, text.size());
    buf[text.size()] = '\0';
    char* end = nullptr;
    const double value = std::strtod(buf, &end);
    if (end != buf + text.size()) return std::nullopt;
    return value;
  } else {
    T value{};
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || ptr != last) return std::nullopt;
    return value;
  }
}

/// A number as messages and config-template print it: an integer in
/// full, a double as printf's %g ("0.999", "1").
template <typename T>
std::string format_number(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  } else {
    return std::to_string(value);
  }
}

/// parse_number into `out` when the value lies in [lo, hi]: returns "",
/// else "expected an integer in [lo, hi]" ("a number" for double, with
/// the bounds in format_number's form) and leaves `out` alone.
template <typename T>
std::string parse_in_range(std::string_view text, std::type_identity_t<T> lo,
                           std::type_identity_t<T> hi, T& out) {
  const auto value = parse_number<T>(text);
  if (value && *value >= lo && *value <= hi) {
    out = *value;
    return {};
  }
  return std::string(std::is_integral_v<T> ? "expected an integer in ["
                                           : "expected a number in [")
      .append(format_number<T>(lo))
      .append(", ")
      .append(format_number<T>(hi))
      .append("]");
}

}  // namespace dml
