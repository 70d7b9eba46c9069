#include "online/retraining.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/thread_pool.hpp"

namespace dml::online {
namespace {

/// Internal carrier for an exhausted retry budget.  Converted into
/// failure *data* (a failed SnapshotBuild) on the thread that ran the
/// build — an exception rethrown through the future would leave the
/// owner reading what() while the pool thread disposes of the task
/// state that owns it.
class BuildFailed : public std::runtime_error {
 public:
  BuildFailed(std::size_t attempts, const std::string& message,
              std::string stage)
      : std::runtime_error(message),
        attempts_(attempts),
        stage_(std::move(stage)) {}

  std::size_t attempts() const { return attempts_; }
  const std::string& stage() const { return stage_; }

 private:
  std::size_t attempts_;
  std::string stage_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::string_view to_string(TrainingMode mode) {
  switch (mode) {
    case TrainingMode::kStatic: return "static";
    case TrainingMode::kSlidingWindow: return "sliding";
    case TrainingMode::kWholeHistory: return "whole";
  }
  return "unknown";
}

RetrainScheduler::RetrainScheduler(OnlineEngineConfig config)
    : config_(std::move(config)), latest_(meta::empty_snapshot()) {
  // Config contracts, checked once at construction: a non-positive
  // cadence would spin boundary_due's skipped-boundary collapse loop
  // forever, and a non-positive window mines rules over an empty span.
  DML_CHECK_MSG(config_.retrain_interval > 0,
                "retrain cadence must be positive");
  DML_CHECK_MSG(config_.prediction_window > 0,
                "prediction window must be positive");
}

RetrainScheduler::~RetrainScheduler() {
  if (pending_.valid()) pending_.wait();
}

std::optional<TimeSec> RetrainScheduler::boundary_due(TimeSec t) {
  if (!anchor_) {
    anchor_ = t;
    const DurationSec delay = config_.initial_training_delay > 0
                                  ? config_.initial_training_delay
                                  : config_.retrain_interval;
    next_boundary_ = t + delay;
    return std::nullopt;
  }
  if (!next_boundary_ || t < *next_boundary_) return std::nullopt;
  // Collapse skipped boundaries (an event gap longer than the cadence)
  // onto the latest one that is due.
  TimeSec boundary = *next_boundary_;
  while (boundary + config_.retrain_interval <= t) {
    boundary += config_.retrain_interval;
  }
  *next_boundary_ = boundary + config_.retrain_interval;
  // The schedule only moves forward: the boundary just returned is in
  // the past of the one armed next (snapshot epoch ordering).
  DML_DCHECK(*next_boundary_ > boundary);
  return boundary;
}

RetrainScheduler::BoundaryAction RetrainScheduler::fire(TimeSec boundary) {
  if (config_.mode == TrainingMode::kStatic && trained_once_) {
    return BoundaryAction::kRefresh;
  }
  // One build at a time: if the previous one is still running (or not
  // yet adopted), skip this boundary rather than queueing work the
  // stream has already outpaced.
  if (pending_.valid()) return BoundaryAction::kNone;

  if (config_.mode == TrainingMode::kSlidingWindow) {
    while (!history_.empty() &&
           history_.front().time < boundary - config_.training_span) {
      history_.pop_front();
    }
  }
  if (history_.empty()) return BoundaryAction::kNone;

  ++retrainings_;
  trained_once_ = true;
  pending_scheduled_ = boundary;
  std::vector<bgl::Event> training(history_.begin(), history_.end());
  meta::RepositorySnapshot previous = latest_;
  auto build = [this, training = std::move(training), boundary,
                previous = std::move(previous)]() mutable -> SnapshotBuild {
    try {
      return run_build_with_retry(training, boundary, std::move(previous));
    } catch (const BuildFailed& e) {
      SnapshotBuild failed;
      failed.scheduled_at = boundary;
      failed.failed_attempts = e.attempts();
      failed.error = e.what();
      failed.failed_stage = e.stage();
      return failed;
    }
  };
  if (config_.pool_builds) {
    pending_ = ThreadPool::shared().submit(std::move(build));
    return BoundaryAction::kRetrain;
  }
  // An inline build waits in the same slot, already satisfied, for the
  // same adoption rule.  (A set promise, not a deferred future: the
  // destructor's wait() would run a deferred build.)
  SnapshotBuild done = build();
  const bool failed = done.failed();
  std::promise<SnapshotBuild> slot;
  slot.set_value(std::move(done));
  pending_ = slot.get_future();
  return failed ? BoundaryAction::kNone : BoundaryAction::kRetrain;
}

SnapshotBuild RetrainScheduler::run_build_with_retry(
    const std::vector<bgl::Event>& training, TimeSec boundary,
    meta::RepositorySnapshot previous) const {
  std::uint32_t backoff_ms = kRetryBackoffMs;
  for (std::size_t attempt = 1;; ++attempt) {
    const bool last = attempt >= kMaxBuildAttempts;
    try {
      return run_build(training, boundary, previous);
    } catch (const meta::LearnerError& e) {
      // A base learner threw: keep its name so the failure record (and
      // the --profile report) can attribute the abandonment per learner.
      if (last) throw BuildFailed(attempt, e.what(), e.stage());
    } catch (const std::exception& e) {
      if (last) throw BuildFailed(attempt, e.what(), "build");
    } catch (...) {
      if (last) throw BuildFailed(attempt, "unknown exception", "build");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms *= 2;
  }
}

void RetrainScheduler::observe(const bgl::Event& event) {
  history_.push_back(event);
  // Keep memory bounded between boundaries too; the exact per-boundary
  // trim happens in fire().
  if (config_.mode == TrainingMode::kSlidingWindow) {
    while (!history_.empty() &&
           history_.front().time < event.time - config_.training_span) {
      history_.pop_front();
    }
  }
}

SnapshotBuild RetrainScheduler::run_build(
    const std::vector<bgl::Event>& training, TimeSec boundary,
    meta::RepositorySnapshot previous) const {
  using Clock = std::chrono::steady_clock;
  // Fault injection: `retrain.build` throw exercises the bounded-retry /
  // keep-last-snapshot path, delay simulates a slow build racing the
  // stream to its adoption point.
  common::failpoint(common::failpoints::kRetrainBuild);
  SnapshotBuild build;
  build.scheduled_at = boundary;

  const meta::MetaLearner learner(config_.learner);

  const DurationSec window = config_.prediction_window;
  build.window = window;

  auto repository = learner.learn(training, window, &build.train_times);
  build.rules_from_meta = repository.size();
  build.churn_meta = meta::KnowledgeRepository::diff(*previous, repository);
  if (config_.use_reviser) {
    const auto revise_start = Clock::now();
    const auto report =
        predict::revise(repository, training, window, config_.reviser);
    build.revise_seconds = seconds_since(revise_start);
    build.rules_removed_by_reviser = report.removed;
  }
  build.churn = meta::KnowledgeRepository::diff(*previous, repository);
  build.repository = meta::freeze(std::move(repository));
  return build;
}

std::optional<SnapshotBuild> RetrainScheduler::take_pending(
    TimeSec activate_at) {
  const TimeSec boundary = pending_scheduled_;
  // Adoption never precedes the boundary that scheduled the build; the
  // serving side relies on activate_at >= scheduled_at to warm its
  // predictor from events strictly before adoption.
  DML_DCHECK(activate_at >= boundary);
  auto build = pending_.get();
  if (build.failed()) {
    // Every attempt failed: abandon the boundary, keep serving the last
    // good snapshot.  (pending_ was consumed by get(), so the next
    // boundary is free to train again.)
    failures_.push_back({boundary, build.failed_attempts,
                         std::move(build.error),
                         std::move(build.failed_stage)});
    return std::nullopt;
  }
  build.activate_at = activate_at;
  return build;
}

std::optional<SnapshotBuild> RetrainScheduler::poll(TimeSec t) {
  if (!pending_.valid()) return std::nullopt;
  // The one adoption rule: a build is adopted at a fixed event-time
  // instant, so a replay is exact even though a pool build raced the
  // stream.  An inline build is adopted at its boundary; a pool build
  // one adoption lag later, where an unset lag means one prediction
  // window — slack for a build to finish in the background at realistic
  // event rates.  If the build is still running when the stream gets
  // there, wait for it.
  DurationSec lag = 0;
  if (config_.pool_builds) {
    lag = config_.adoption_lag > 0 ? config_.adoption_lag
                                   : config_.prediction_window;
  }
  const TimeSec adopt_at = pending_scheduled_ + lag;
  if (t < adopt_at) return std::nullopt;
  auto build = take_pending(adopt_at);
  if (build) {
    latest_ = build->repository;
    adopted_train_times_ += build->train_times;
    adopted_revise_seconds_ += build->revise_seconds;
  }
  return build;
}

void RetrainScheduler::join(TimeSec t) {
  if (pending_.valid()) take_pending(t);
}

SnapshotBuild RetrainScheduler::in_force(TimeSec at) const {
  SnapshotBuild build;
  build.repository = latest_;
  build.window = config_.prediction_window;
  build.scheduled_at = at;
  build.activate_at = at;
  return build;
}

}  // namespace dml::online
