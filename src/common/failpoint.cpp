#include "common/failpoint.hpp"

#include <chrono>
#include <thread>

#include "common/string_util.hpp"

namespace dml::common {
namespace {

constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

/// FNV-1a: stable per-name offset into the seed space, so each site gets
/// an independent deterministic stream.
std::uint64_t name_hash(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

/// Error with a caret line pointing at `pos` inside the offending spec,
/// so a malformed CLI/env assignment is diagnosed exactly:
///   failpoint p must be a probability in [0, 1]
///     drop:p=1.5
///            ^
bool fail_at(std::string* error, std::string_view text, std::size_t pos,
             std::string message) {
  if (error) {
    message.append("\n  ");
    message.append(text);
    message.append("\n  ");
    message.append(std::min(pos, text.size()), ' ');
    message.push_back('^');
    *error = std::move(message);
  }
  return false;
}

}  // namespace

std::string_view to_string(FailAction action) {
  switch (action) {
    case FailAction::kOff: return "off";
    case FailAction::kThrow: return "throw";
    case FailAction::kDelay: return "delay";
    case FailAction::kDrop: return "drop";
    case FailAction::kCorrupt: return "corrupt";
  }
  return "unknown";
}

std::optional<FailpointSpec> parse_failpoint_spec(std::string_view text,
                                                  std::string* error) {
  FailpointSpec spec;
  // Tokenizer with position tracking: token_at holds the offset of the
  // token under inspection, so every rejection points at the exact
  // character that caused it.
  std::size_t start = 0;
  std::size_t token_at = 0;
  const auto next_token = [&]() -> std::optional<std::string_view> {
    if (start > text.size()) return std::nullopt;
    token_at = start;
    const std::size_t pos = text.find(':', start);
    const auto token = text.substr(
        start, pos == std::string_view::npos ? pos : pos - start);
    start = pos == std::string_view::npos ? text.size() + 1 : pos + 1;
    return token;
  };

  const auto action = next_token();
  if (!action || action->empty()) {
    fail(error, "empty failpoint spec");
    return std::nullopt;
  }
  if (*action == "off") {
    spec.action = FailAction::kOff;
  } else if (*action == "throw") {
    spec.action = FailAction::kThrow;
  } else if (*action == "delay") {
    spec.action = FailAction::kDelay;
  } else if (*action == "drop") {
    spec.action = FailAction::kDrop;
  } else if (*action == "corrupt") {
    spec.action = FailAction::kCorrupt;
  } else {
    fail_at(error, text, token_at,
            "unknown failpoint action '" + std::string(*action) +
                "' (throw|delay|drop|corrupt|off)");
    return std::nullopt;
  }

  bool seen_p = false, seen_ms = false, seen_after = false, seen_max = false;
  while (const auto token = next_token()) {
    if (token->empty()) {
      fail_at(error, text, token_at,
              "empty failpoint parameter (expected key=value)");
      return std::nullopt;
    }
    const std::size_t eq = token->find('=');
    if (eq == std::string_view::npos) {
      fail_at(error, text, token_at,
              "failpoint parameter '" + std::string(*token) +
                  "' is not key=value");
      return std::nullopt;
    }
    const auto key = token->substr(0, eq);
    const auto value = token->substr(eq + 1);
    const std::size_t value_at = token_at + eq + 1;
    if (value.empty()) {
      fail_at(error, text, value_at,
              "failpoint parameter '" + std::string(key) +
                  "' is missing a value");
      return std::nullopt;
    }
    const auto seen = [&](bool& flag) {
      if (flag) {
        fail_at(error, text, token_at,
                "duplicate failpoint parameter '" + std::string(key) + "'");
        return true;
      }
      flag = true;
      return false;
    };
    if (key == "p") {
      if (seen(seen_p)) return std::nullopt;
      const auto p = parse_number<double>(value);
      // Written so that NaN, which compares false, is refused too.
      if (!p || !(*p >= 0.0 && *p <= 1.0)) {
        fail_at(error, text, value_at,
                "failpoint p must be a probability in [0, 1]");
        return std::nullopt;
      }
      spec.probability = *p;
    } else if (key == "ms") {
      if (seen(seen_ms)) return std::nullopt;
      const auto ms = parse_number<std::uint32_t>(value);
      if (!ms) {
        fail_at(error, text, value_at,
                "failpoint ms must be a nonnegative integer");
        return std::nullopt;
      }
      spec.delay_ms = *ms;
    } else if (key == "after") {
      if (seen(seen_after)) return std::nullopt;
      const auto n = parse_number<std::uint64_t>(value);
      if (!n) {
        fail_at(error, text, value_at,
                "failpoint after must be a nonnegative integer");
        return std::nullopt;
      }
      spec.after = *n;
    } else if (key == "max") {
      if (seen(seen_max)) return std::nullopt;
      const auto n = parse_number<std::uint64_t>(value);
      if (!n) {
        fail_at(error, text, value_at,
                "failpoint max must be a nonnegative integer");
        return std::nullopt;
      }
      spec.max_triggers = *n;
    } else {
      fail_at(error, text, token_at,
              "unknown failpoint parameter '" + std::string(key) +
                  "' (p|ms|after|max)");
      return std::nullopt;
    }
  }
  return spec;
}

FailpointRegistry::FailpointRegistry() : seed_(kDefaultSeed) {}

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry registry;
  return registry;
}

FailpointRegistry::Entry* FailpointRegistry::find(std::string_view name) {
  for (auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const FailpointRegistry::Entry* FailpointRegistry::find(
    std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

void FailpointRegistry::recount_armed() {
  std::size_t armed = 0;
  for (const auto& entry : entries_) {
    if (entry.spec.action != FailAction::kOff) ++armed;
  }
  armed_.store(armed, std::memory_order_relaxed);
}

void FailpointRegistry::arm(std::string_view name, FailpointSpec spec) {
  MutexLock lock(mutex_);
  Entry* entry = find(name);
  if (!entry) {
    entries_.emplace_back();
    entry = &entries_.back();
    entry->name = std::string(name);
  }
  entry->spec = spec;
  entry->rng = Rng(seed_ ^ name_hash(name));
  entry->stats = Stats{};
  recount_armed();
}

bool FailpointRegistry::arm_from_string(std::string_view assignment,
                                        std::string* error) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    fail(error, "failpoint must be name=spec, got '" +
                    std::string(assignment) + "'");
    return false;
  }
  const auto spec = parse_failpoint_spec(assignment.substr(eq + 1), error);
  if (!spec) return false;
  arm(assignment.substr(0, eq), *spec);
  return true;
}

void FailpointRegistry::disarm(std::string_view name) {
  MutexLock lock(mutex_);
  if (Entry* entry = find(name)) {
    entry->spec.action = FailAction::kOff;
    recount_armed();
  }
}

void FailpointRegistry::reset() {
  MutexLock lock(mutex_);
  entries_.clear();
  seed_ = kDefaultSeed;
  armed_.store(0, std::memory_order_relaxed);
}

void FailpointRegistry::reseed(std::uint64_t seed) {
  MutexLock lock(mutex_);
  seed_ = seed;
  for (auto& entry : entries_) {
    entry.rng = Rng(seed_ ^ name_hash(entry.name));
  }
}

FailpointRegistry::Stats FailpointRegistry::stats(
    std::string_view name) const {
  MutexLock lock(mutex_);
  const Entry* entry = find(name);
  return entry ? entry->stats : Stats{};
}

std::vector<std::pair<std::string, FailpointRegistry::Stats>>
FailpointRegistry::all() const {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::string, Stats>> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.emplace_back(entry.name, entry.stats);
  }
  return out;
}

FailAction FailpointRegistry::evaluate(std::string_view name) {
  FailAction action = FailAction::kOff;
  std::uint32_t delay_ms = 0;
  {
    MutexLock lock(mutex_);
    Entry* entry = find(name);
    if (!entry || entry->spec.action == FailAction::kOff) {
      return FailAction::kOff;
    }
    ++entry->stats.evaluations;
    if (entry->stats.evaluations <= entry->spec.after) {
      return FailAction::kOff;
    }
    if (entry->spec.max_triggers > 0 &&
        entry->stats.triggers >= entry->spec.max_triggers) {
      return FailAction::kOff;
    }
    if (entry->spec.probability < 1.0 &&
        entry->rng.uniform() >= entry->spec.probability) {
      return FailAction::kOff;
    }
    ++entry->stats.triggers;
    action = entry->spec.action;
    delay_ms = entry->spec.delay_ms;
  }
  // Act outside the lock: a sleeping or throwing failpoint must not
  // serialize every other instrumented site behind it.
  if (action == FailAction::kThrow) {
    throw FailpointError(std::string(name));
  }
  if (action == FailAction::kDelay && delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return action;
}

}  // namespace dml::common
