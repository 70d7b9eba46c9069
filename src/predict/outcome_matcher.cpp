#include "predict/outcome_matcher.hpp"

#include <algorithm>
#include <limits>
#include <optional>

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

/// Per-rule Tp and Fn for the reviser, counted inside the matching pass:
/// a consumed warning credits its rule with the fatal, once per (rule,
/// fatal) pair, and Fn is the rule's eligible fatals minus the eligible
/// ones it covered.  Eligible counts come from one index per rule kind.
/// Every count is an integer, so the result equals the rules x fatals
/// scan this replaces (tests/reference keeps it).
class RuleTally {
 public:
  RuleTally(const meta::KnowledgeRepository& repository,
            std::span<const FatalEvent> fatals)
      : rules_(repository.rules()), fatals_(fatals) {
    std::uint64_t max_id = 0;
    for (const auto& stored : rules_) max_id = std::max(max_id, stored.id);
    slot_by_id_.assign(max_id + 1, kNone);
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      slot_by_id_[rules_[i].id] = i;
    }
    last_fatal_.assign(rules_.size(), kNone);
    covered_.assign(rules_.size(), 0);
    covered_eligible_.assign(rules_.size(), 0);
    for (const auto& f : fatals_) {
      if (f.category >= fatals_by_category_.size()) {
        fatals_by_category_.resize(f.category + 1u, 0);
      }
      ++fatals_by_category_[f.category];
      preceding_sorted_.push_back(f.preceding_in_window);
      gap_sorted_.push_back(f.gap_before);
    }
    std::sort(preceding_sorted_.begin(), preceding_sorted_.end());
    std::sort(gap_sorted_.begin(), gap_sorted_.end());
  }

  /// Fatal `fi` consumed a warning of rule `rule_id`.
  void covered(std::uint64_t rule_id, std::size_t fi) {
    if (rule_id >= slot_by_id_.size()) return;
    const std::size_t slot = slot_by_id_[rule_id];
    if (slot == kNone || last_fatal_[slot] == fi) return;
    last_fatal_[slot] = fi;
    ++covered_[slot];
    if (rule_eligible(rules_[slot].rule, fatals_[fi])) {
      ++covered_eligible_[slot];
    }
  }

  /// Adds every repository rule's Tp and Fn to `per_rule`.
  void write(std::unordered_map<std::uint64_t, stats::ConfusionCounts>&
                 per_rule) const {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      auto& counts = per_rule[rules_[i].id];
      counts.true_positives += covered_[i];
      counts.false_negatives += eligible_count(rules_[i].rule) -
                                covered_eligible_[i];
    }
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// How many fatals of the span rule_eligible accepts for `rule`.
  std::uint64_t eligible_count(const learners::Rule& rule) const {
    const auto at_least = [](const auto& sorted, auto bound) {
      return static_cast<std::uint64_t>(
          sorted.end() - std::lower_bound(sorted.begin(), sorted.end(), bound));
    };
    const auto in_category = [this](CategoryId category) -> std::uint64_t {
      return category < fatals_by_category_.size()
                 ? fatals_by_category_[category]
                 : 0;
    };
    switch (rule.source()) {
      case learners::RuleSource::kAssociation:
        return in_category(rule.as_association()->consequent);
      case learners::RuleSource::kStatistical:
        return at_least(preceding_sorted_, rule.as_statistical()->k);
      case learners::RuleSource::kDistribution:
        return at_least(gap_sorted_, rule.as_distribution()->elapsed_trigger);
      case learners::RuleSource::kCorrelation:
        return in_category(rule.as_correlation()->consequent);
    }
    return 0;
  }

  const std::vector<meta::StoredRule>& rules_;
  std::span<const FatalEvent> fatals_;
  /// Rule id -> index into rules_, kNone for ids not in the repository.
  std::vector<std::size_t> slot_by_id_;
  /// Per rule: the last fatal credited, so a fatal counts once per rule
  /// however many of the rule's warnings it consumed.
  std::vector<std::size_t> last_fatal_;
  std::vector<std::uint64_t> covered_;
  std::vector<std::uint64_t> covered_eligible_;
  /// Eligibility indexes: fatals per category, and the sorted
  /// preceding_in_window and gap_before of every fatal.
  std::vector<std::uint64_t> fatals_by_category_;
  std::vector<int> preceding_sorted_;
  std::vector<DurationSec> gap_sorted_;
};

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
  std::optional<RuleTally> tally;
  if (repository != nullptr) tally.emplace(*repository, fatals);

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
      if (tally) tally->covered(w.rule_id, fi);
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
    tally->write(result.per_rule);
  }
  return result;
}

}  // namespace dml::predict
