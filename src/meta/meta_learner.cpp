#include "meta/meta_learner.hpp"

#include <chrono>
#include <vector>

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

  TrainTimes local;
  std::vector<learners::Rule> association_rules;
  std::vector<learners::Rule> statistical_rules;
  std::vector<learners::Rule> distribution_rules;
  std::vector<learners::Rule> chain_rules;

  // One job per enabled learner, longest first: the correlation graph
  // build starts at once, and the short jobs fill in around it.
  struct Job {
    const learners::BaseLearner* learner;
    std::vector<learners::Rule>* rules;
    double* seconds;
  };
  std::vector<Job> jobs;
  if (config_.enable_correlation) {
    jobs.push_back({&correlation_, &chain_rules, &local.correlation_seconds});
  }
  if (config_.enable_association) {
    jobs.push_back(
        {&association_, &association_rules, &local.association_seconds});
  }
  if (config_.enable_distribution) {
    jobs.push_back(
        {&distribution_, &distribution_rules, &local.distribution_seconds});
  }
  if (config_.enable_statistical) {
    jobs.push_back(
        {&statistical_, &statistical_rules, &local.statistical_seconds});
  }
  const auto run_job = [&](std::size_t i) {
    const Job& job = jobs[i];
    const auto start = Clock::now();
    try {
      *job.rules = job.learner->learn(training, window);
    } catch (const LearnerError&) {
      throw;
    } catch (const std::exception& e) {
      // Tag the failure with the learner it came from; retrain failure
      // records surface the stage to the operator.
      throw LearnerError(
          std::string(learners::to_string(job.learner->source())), e.what());
    }
    *job.seconds = seconds_since(start);
  };
  if (config_.parallel_training) {
    ThreadPool::shared().parallel_for(0, jobs.size(), run_job);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i);
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
