#include "predict/outcome_matcher.hpp"

#include <algorithm>
#include <limits>

namespace dml::predict {
namespace {

struct FatalEvent {
  TimeSec time;
  CategoryId category;
  std::uint32_t midplane = 0;  // packed midplane-scope location
  /// Fatal events (by index) within (time - window, time): eligibility
  /// input for statistical rules.
  int preceding_in_window = 0;
  /// Gap to the previous fatal (or a huge value for the first one):
  /// eligibility input for distribution rules.
  DurationSec gap_before = 0;
};

std::vector<FatalEvent> collect_fatals(std::span<const bgl::Event> events,
                                       DurationSec window) {
  std::vector<FatalEvent> fatals;
  for (const auto& e : events) {
    if (!e.fatal) continue;
    FatalEvent f;
    f.time = e.time;
    f.category = e.category;
    f.midplane = e.location.enclosing_midplane().packed();
    fatals.push_back(f);
  }
  std::size_t lo = 0;
  for (std::size_t i = 0; i < fatals.size(); ++i) {
    while (lo < i && fatals[lo].time <= fatals[i].time - window) ++lo;
    fatals[i].preceding_in_window = static_cast<int>(i - lo);
    fatals[i].gap_before = i == 0 ? std::numeric_limits<DurationSec>::max() / 2
                                  : fatals[i].time - fatals[i - 1].time;
  }
  return fatals;
}

bool rule_eligible(const learners::Rule& rule, const FatalEvent& fatal) {
  switch (rule.source()) {
    case learners::RuleSource::kAssociation:
      return rule.as_association()->consequent == fatal.category;
    case learners::RuleSource::kStatistical:
      // The rule could only have fired if k fatals (the trigger event
      // included) preceded this one inside the window.
      return fatal.preceding_in_window >= rule.as_statistical()->k;
    case learners::RuleSource::kDistribution:
      return fatal.gap_before >= rule.as_distribution()->elapsed_trigger;
    case learners::RuleSource::kCorrelation:
      // Like association: the chain predicts one specific category.
      return rule.as_correlation()->consequent == fatal.category;
  }
  return false;
}

}  // namespace

EvaluationResult evaluate_predictions(
    std::span<const bgl::Event> events, std::span<const Warning> warnings,
    DurationSec window, const meta::KnowledgeRepository* repository) {
  EvaluationResult result;
  const auto fatals = collect_fatals(events, window);
  result.total_fatals = fatals.size();
  result.total_warnings = warnings.size();
  result.fatal_coverage_mask.assign(fatals.size(), 0);

  // Which rules covered anything, per warning — warnings are
  // time-ordered, fatals are time-ordered: sliding two-pointer match.
  // Each warning predicts *one* failure: it is consumed by the first
  // fatal it matches and cannot claim later failures in its window
  // (otherwise a single long-horizon warning would blanket a whole
  // failure cascade and recall would be meaningless).
  std::vector<bool> warning_correct(warnings.size(), false);
  std::vector<std::vector<std::uint64_t>> fatal_covered_by(fatals.size());

  std::size_t w_lo = 0;
  for (std::size_t fi = 0; fi < fatals.size(); ++fi) {
    const auto& f = fatals[fi];
    // Warnings too old to cover f can never cover a later fatal either.
    while (w_lo < warnings.size() && warnings[w_lo].deadline < f.time) {
      ++w_lo;
    }
    for (std::size_t wi = w_lo; wi < warnings.size(); ++wi) {
      const auto& w = warnings[wi];
      if (w.issued_at >= f.time) break;  // must precede the failure
      if (w.deadline < f.time) continue;
      if (warning_correct[wi]) continue;  // already consumed
      if (w.category.has_value() && *w.category != f.category) continue;
      if (w.location.has_value() && w.location->packed() != f.midplane) {
        continue;
      }
      warning_correct[wi] = true;
      fatal_covered_by[fi].push_back(w.rule_id);
      result.fatal_coverage_mask[fi] |=
          static_cast<std::uint8_t>(1u << static_cast<unsigned>(w.source));
    }
  }

  // Overall + per-source counts.
  for (std::size_t wi = 0; wi < warnings.size(); ++wi) {
    if (!warning_correct[wi]) {
      ++result.overall.false_positives;
      ++result.per_source[static_cast<std::size_t>(warnings[wi].source)]
            .false_positives;
    }
  }
  for (std::size_t fi = 0; fi < fatals.size(); ++fi) {
    const std::uint8_t mask = result.fatal_coverage_mask[fi];
    if (mask != 0) {
      ++result.overall.true_positives;
    } else {
      ++result.overall.false_negatives;
    }
    for (unsigned s = 0; s < learners::kNumRuleSources; ++s) {
      if (mask & (1u << s)) {
        ++result.per_source[s].true_positives;
      } else {
        ++result.per_source[s].false_negatives;
      }
    }
  }

  // Per-rule attribution for the reviser.
  if (repository != nullptr) {
    for (std::size_t wi = 0; wi < warnings.size(); ++wi) {
      if (!warning_correct[wi]) {
        ++result.per_rule[warnings[wi].rule_id].false_positives;
      }
    }
    for (const auto& stored : repository->rules()) {
      auto& counts = result.per_rule[stored.id];
      for (std::size_t fi = 0; fi < fatals.size(); ++fi) {
        const bool covered =
            std::find(fatal_covered_by[fi].begin(), fatal_covered_by[fi].end(),
                      stored.id) != fatal_covered_by[fi].end();
        if (covered) {
          ++counts.true_positives;
        } else if (rule_eligible(stored.rule, fatals[fi])) {
          ++counts.false_negatives;
        }
      }
    }
  }
  return result;
}

}  // namespace dml::predict
