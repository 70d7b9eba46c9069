#include "learners/statistical_learner.hpp"

#include <algorithm>

namespace dml::learners {

std::vector<StatisticalLearner::Estimate> StatisticalLearner::estimate(
    std::span<const bgl::Event> training, DurationSec window, int max_k) {
  std::vector<TimeSec> fatals;
  for (const auto& e : training) {
    if (e.fatal) fatals.push_back(e.time);
  }

  std::vector<Estimate> estimates(static_cast<std::size_t>(max_k));
  for (int k = 1; k <= max_k; ++k) {
    estimates[static_cast<std::size_t>(k - 1)].k = k;
  }

  // For each fatal event i: c = fatals within (t_i - window, t_i]
  // (including itself); the occurrence "triggers" every rule with k <= c,
  // and the trigger is "followed" if another fatal lands in
  // (t_i, t_i + window].
  std::size_t lo = 0;
  for (std::size_t i = 0; i < fatals.size(); ++i) {
    while (lo <= i && fatals[lo] <= fatals[i] - window) ++lo;
    const int c = static_cast<int>(i - lo + 1);
    const bool followed =
        i + 1 < fatals.size() && fatals[i + 1] <= fatals[i] + window;
    for (int k = 1; k <= std::min(c, max_k); ++k) {
      auto& est = estimates[static_cast<std::size_t>(k - 1)];
      ++est.triggers;
      if (followed) ++est.followed;
    }
  }
  return estimates;
}

std::vector<Rule> StatisticalLearner::learn(
    std::span<const bgl::Event> training, DurationSec window) const {
  std::vector<Rule> rules;
  const auto estimates = estimate(training, window, config_.max_k);
  for (const auto& est : estimates) {
    if (est.triggers < config_.min_samples) continue;
    if (est.probability() < config_.min_probability) continue;
    StatisticalRule rule;
    rule.k = est.k;
    rule.probability = est.probability();
    rules.emplace_back(rule);
  }
  // Keep only the smallest qualifying k: any larger-k rule fires strictly
  // less often and predicts the same thing.
  if (rules.size() > 1) rules.resize(1);
  return rules;
}

}  // namespace dml::learners
