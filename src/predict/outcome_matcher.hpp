// Matches warnings against the failures that actually occurred and
// produces the paper's §5.1 metrics:
//   Tp — failures covered by at least one correct warning,
//   Fp — warnings whose window contained no matching failure,
//   Fn — failures no warning covered,
//   precision = Tp/(Tp+Fp), recall = Tp/(Tp+Fn).
//
// A warning covers a failure f when f falls in (issued_at, deadline] and
// the warning's predicted category (if any) equals f's category.
// Per-rule attribution additionally scopes Fn to the failures the rule
// was *eligible* to predict (its consequent category for association
// rules; k-preceded failures for statistical rules; long-gap failures
// for the distribution rule) — this is the Algorithm 1 input.
#pragma once

#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "meta/knowledge_repository.hpp"
#include "predict/predictor.hpp"
#include "stats/metrics.hpp"

namespace dml::predict {

struct EvaluationResult {
  stats::ConfusionCounts overall;
  /// Indexed by RuleSource; Tp/Fn attribute a failure to every source
  /// that covered / could have covered it.
  std::array<stats::ConfusionCounts, learners::kNumRuleSources> per_source;
  /// Per rule id, filled only when a repository is given: an entry for
  /// every repository rule, plus one for any other rule id that issued a
  /// false positive.
  std::unordered_map<std::uint64_t, stats::ConfusionCounts> per_rule;
  /// For each fatal event of the span, a bitmask of the RuleSources
  /// whose warnings covered it (bit i == source i) — the Figure 8 Venn.
  std::vector<std::uint8_t> fatal_coverage_mask;
  std::size_t total_fatals = 0;
  std::size_t total_warnings = 0;
};

/// Evaluates `warnings` (time-ordered) against the fatal events within
/// `events` (time-ordered).  `repository` supplies rule bodies for the
/// per-rule eligibility scoping; pass nullptr to skip per-rule counts.
EvaluationResult evaluate_predictions(
    std::span<const bgl::Event> events, std::span<const Warning> warnings,
    DurationSec window, const meta::KnowledgeRepository* repository = nullptr);

}  // namespace dml::predict
