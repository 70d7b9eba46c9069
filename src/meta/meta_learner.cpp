#include "meta/meta_learner.hpp"

#include <chrono>
#include <future>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace dml::meta {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

MetaLearner::MetaLearner(MetaLearnerConfig config)
    : config_(config),
      association_(config.association),
      statistical_(config.statistical),
      distribution_(config.distribution),
      correlation_(config.correlation) {
  DML_CHECK_MSG(!config.enable_decision_tree && !config.enable_neural_net,
                "the decision-tree and neural-net experts are retired");
}

KnowledgeRepository MetaLearner::learn(std::span<const bgl::Event> training,
                                       DurationSec window,
                                       TrainTimes* times) const {
  using Clock = std::chrono::steady_clock;

  auto run_learner = [&](const learners::BaseLearner& learner,
                         double* seconds) {
    const auto start = Clock::now();
    try {
      auto rules = learner.learn(training, window);
      if (seconds != nullptr) *seconds = seconds_since(start);
      return rules;
    } catch (const LearnerError&) {
      throw;
    } catch (const std::exception& e) {
      // Tag the failure with the learner it came from; retrain failure
      // records surface the stage to the operator.
      throw LearnerError(std::string(learners::to_string(learner.source())),
                         e.what());
    }
  };

  TrainTimes local;
  std::vector<learners::Rule> association_rules;
  std::vector<learners::Rule> statistical_rules;
  std::vector<learners::Rule> distribution_rules;
  std::vector<learners::Rule> chain_rules;

  if (config_.parallel_training && ThreadPool::shared().size() > 1) {
    // Statistical, distribution and correlation learning go to the
    // pool; association mining (the expensive stage) runs on the calling
    // thread.
    std::future<std::vector<learners::Rule>> stat_future;
    std::future<std::vector<learners::Rule>> dist_future;
    std::future<std::vector<learners::Rule>> chain_future;
    if (config_.enable_statistical) {
      stat_future = ThreadPool::shared().submit([&] {
        return run_learner(statistical_, &local.statistical_seconds);
      });
    }
    if (config_.enable_distribution) {
      dist_future = ThreadPool::shared().submit([&] {
        return run_learner(distribution_, &local.distribution_seconds);
      });
    }
    if (config_.enable_correlation) {
      chain_future = ThreadPool::shared().submit([&] {
        return run_learner(correlation_, &local.correlation_seconds);
      });
    }
    if (config_.enable_association) {
      association_rules = run_learner(association_, &local.association_seconds);
    }
    if (stat_future.valid()) statistical_rules = stat_future.get();
    if (dist_future.valid()) distribution_rules = dist_future.get();
    if (chain_future.valid()) chain_rules = chain_future.get();
  } else {
    if (config_.enable_association) {
      association_rules = run_learner(association_, &local.association_seconds);
    }
    if (config_.enable_statistical) {
      statistical_rules = run_learner(statistical_, &local.statistical_seconds);
    }
    if (config_.enable_distribution) {
      distribution_rules =
          run_learner(distribution_, &local.distribution_seconds);
    }
    if (config_.enable_correlation) {
      chain_rules = run_learner(correlation_, &local.correlation_seconds);
    }
  }

  const auto ensemble_start = Clock::now();
  KnowledgeRepository repository;
  // Insertion order encodes the mixture-of-experts precedence:
  // association, then the correlation chains (a pattern expert like
  // association, but over ordered cross-window cascades), then
  // statistical, then probability distribution as the fallback expert.
  for (auto& rule : association_rules) repository.add(std::move(rule));
  for (auto& rule : chain_rules) repository.add(std::move(rule));
  for (auto& rule : statistical_rules) repository.add(std::move(rule));
  for (auto& rule : distribution_rules) repository.add(std::move(rule));
  local.ensemble_seconds = seconds_since(ensemble_start);

  if (times != nullptr) *times = local;
  return repository;
}

}  // namespace dml::meta
