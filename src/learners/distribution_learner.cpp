#include "learners/distribution_learner.hpp"

#include <cmath>

#include "stats/empirical.hpp"

namespace dml::learners {

std::optional<stats::ModelSelection> DistributionLearner::fit_interarrivals(
    std::span<const bgl::Event> training) {
  std::vector<double> times;
  for (const auto& e : training) {
    if (e.fatal) times.push_back(static_cast<double>(e.time));
  }
  auto gaps = stats::inter_arrivals(times);
  // Events at the same recorded second produce zero gaps the lifetime
  // families cannot model; floor them at one second.
  for (double& g : gaps) g = std::max(1.0, g);
  if (gaps.size() < 2) return std::nullopt;
  return stats::select_lifetime_model(gaps);
}

std::vector<Rule> DistributionLearner::learn(
    std::span<const bgl::Event> training, DurationSec /*window*/) const {
  std::vector<Rule> rules;
  std::size_t fatal_count = 0;
  for (const auto& e : training) fatal_count += e.fatal ? 1 : 0;
  if (fatal_count < config_.min_samples + 1) return rules;

  const auto selection = fit_interarrivals(training);
  if (!selection) return rules;

  DistributionRule rule;
  rule.model = selection->best.model;
  rule.cdf_threshold = config_.cdf_threshold;
  rule.elapsed_trigger = static_cast<DurationSec>(
      std::llround(rule.model.quantile(config_.cdf_threshold)));
  rules.emplace_back(std::move(rule));
  return rules;
}

}  // namespace dml::learners
