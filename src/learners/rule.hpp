// Rule model shared by the base learners, the meta-learner, the
// reviser, and the predictor (paper §4).
//
// Four rule families exist, mirroring the base learners:
//  * association rules  {e1..ek} -> f (confidence)         [AR]
//  * statistical rules  "k failures within Wp => another"  [SR]
//  * distribution rules "elapsed since last failure beyond
//    the fitted CDF threshold => failure ahead"             [PD]
//  * correlation-chain rules: ordered multi-stage precursor
//    chains mined from the event-correlation graph            [CC]
//    (LogMaster-style, arXiv:1003.0951; DESIGN.md §14)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bgl/taxonomy.hpp"
#include "common/types.hpp"
#include "stats/distributions.hpp"

namespace dml::learners {

enum class RuleSource : std::uint8_t {
  kAssociation = 0,
  kStatistical = 1,
  kDistribution = 2,
  // 3 and 4 named the retired decision-tree and neural-net experts.
  // They stay unassigned: sources are appended, never renumbered, so
  // per-source arrays, coverage bitmasks and the wire's source byte
  // keep their meaning across versions.
  kCorrelation = 5,
};

/// Bound for per-source arrays indexed by the enum value.
inline constexpr std::size_t kNumRuleSources = 6;

/// Every assigned source, in enumerator order.
inline constexpr std::array<RuleSource, 4> kRuleSources = {
    RuleSource::kAssociation, RuleSource::kStatistical,
    RuleSource::kDistribution, RuleSource::kCorrelation};

std::string_view to_string(RuleSource source);

struct AssociationRule {
  /// Sorted, de-duplicated non-fatal antecedent categories.
  std::vector<CategoryId> antecedent;
  /// Predicted fatal category.
  CategoryId consequent = kInvalidCategory;
  double support = 0.0;
  double confidence = 0.0;
};

struct StatisticalRule {
  /// Trigger: k fatal events observed within the window.
  int k = 1;
  /// P(another failure within Wp | trigger) estimated on training data.
  double probability = 0.0;
};

struct DistributionRule {
  stats::LifetimeModel model;
  /// CDF threshold (paper default 0.6).
  double cdf_threshold = 0.6;
  /// Precomputed model.quantile(cdf_threshold): warn when the elapsed
  /// time since the last failure reaches this.
  DurationSec elapsed_trigger = 0;
};

struct CorrelationChainRule {
  /// Ordered non-fatal stages (order-significant, unlike an association
  /// antecedent): the predictor fires only when the stages occurred in
  /// this order, ending with the most recent one.
  std::vector<CategoryId> chain;
  /// Predicted fatal category.
  CategoryId consequent = kInvalidCategory;
  /// Product of the chain's edge confidences in the correlation graph.
  double confidence = 0.0;
  /// Weakest-edge co-occurrence count, normalized by the consequent's
  /// occurrence count (clamped to [0, 1]).
  double support = 0.0;
  /// Max gap between consecutive matched stages — the adjacency window
  /// the chain was mined with.  Also the warning horizon after the last
  /// stage (a chain's stride can exceed the prediction window Wp; that
  /// is exactly what the flat windowed learners cannot see).
  DurationSec stage_window = 600;
};

class Rule {
 public:
  using Body = std::variant<AssociationRule, StatisticalRule,
                            DistributionRule, CorrelationChainRule>;

  Rule() : body_(StatisticalRule{}) {}
  /// Builds the body in place from one of its alternatives.  (No Body
  /// temporary: GCC 12 flags moving one whose vector-holding
  /// alternatives are inactive as -Wmaybe-uninitialized.)
  template <typename Alternative>
  explicit Rule(Alternative alternative)
      : body_(std::in_place_type<Alternative>, std::move(alternative)) {}

  RuleSource source() const;
  const Body& body() const { return body_; }

  const AssociationRule* as_association() const {
    return std::get_if<AssociationRule>(&body_);
  }
  const StatisticalRule* as_statistical() const {
    return std::get_if<StatisticalRule>(&body_);
  }
  const DistributionRule* as_distribution() const {
    return std::get_if<DistributionRule>(&body_);
  }
  const CorrelationChainRule* as_correlation() const {
    return std::get_if<CorrelationChainRule>(&body_);
  }

  /// Stable identity for rule-churn accounting (Figure 12): two rules
  /// with the same identity are "the same rule" across retrainings even
  /// if their statistics moved.  AR: antecedent set + consequent;
  /// SR: k; PD: family + threshold bucket.
  std::string identity() const;

  /// Human-readable rendering, e.g.
  /// "networkWarningInterrupt, networkError -> socketReadFailure: 1.0".
  std::string describe(const bgl::Taxonomy& taxonomy) const;

 private:
  Body body_;
};

}  // namespace dml::learners
