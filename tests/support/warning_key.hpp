// The identity of a warning for comparing warning streams across runs,
// shard counts, feed forms, transports and storage planes: the fields
// `dmlfp run --warnings` renders per line.
#pragma once

#include <cstdint>
#include <tuple>

#include "common/types.hpp"
#include "predict/predictor.hpp"

namespace dml::testing {

using WarningKey = std::tuple<TimeSec, TimeSec, std::uint64_t, int,
                              std::uint32_t, std::uint32_t>;

inline WarningKey key_of(const predict::Warning& w) {
  return {w.issued_at,
          w.deadline,
          w.rule_id,
          static_cast<int>(w.source),
          w.category.value_or(kInvalidCategory),
          w.location ? w.location->packed() : 0xffffffffu};
}

}  // namespace dml::testing
