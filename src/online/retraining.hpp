// Retraining scheduling and snapshot building — the "learn" half of the
// serving loop, run by DynamicDriver (inline builds) and ShardedEngine
// (builds on the pool), both under one OnlineEngineConfig.
//
// The scheduler owns the bounded event history, decides *when* a
// retraining boundary is due (event time, anchored at the first observed
// event), and builds each new rule set as an immutable
// meta::RepositorySnapshot — inline for the driver's replay, or on
// ThreadPool::shared() so the serving path never blocks on training
// (paper Table 5, Observation #8).  Either kind of build waits in one
// slot and is handed out by one adoption rule, expressed in *event*
// time, which keeps a replay bit-for-bit reproducible even though a
// pool build raced the stream.  The scheduler also sums what the builds
// it hands out cost.  The history is training input only: the serving
// side warms each fresh predictor from its own trailing buffer
// (ServingCore).
#pragma once

#include <deque>
#include <future>
#include <optional>
#include <string_view>
#include <vector>

#include "bgl/record.hpp"
#include "meta/meta_learner.hpp"
#include "meta/snapshot.hpp"
#include "predict/predictor.hpp"
#include "predict/reviser.hpp"

namespace dml::online {

enum class TrainingMode {
  /// Train once on the initial span; never retrain.
  kStatic,
  /// Retrain every Wr weeks on the most recent `training_span` of events.
  kSlidingWindow,
  /// Retrain every Wr weeks on all history since the log began.
  kWholeHistory,
};

std::string_view to_string(TrainingMode mode);

/// A throwing build (learner, reviser or `retrain.build` failpoint) is
/// tried this many times, with a wall backoff from kRetryBackoffMs that
/// doubles per retry, before its boundary goes to failures().
inline constexpr std::size_t kMaxBuildAttempts = 3;
inline constexpr std::uint32_t kRetryBackoffMs = 10;

/// The settings of the serving loop, shared by its two owners:
/// DynamicDriver::run maps its DriverConfig onto one, and ShardedEngine
/// takes one in ShardedEngineConfig::engine.  The last field is decided
/// by the owner, not by a user.
struct OnlineEngineConfig {
  /// Wp: prediction window == rule-generation window.
  DurationSec prediction_window = 300;
  /// Filtering threshold for inline preprocessing of raw records.
  DurationSec filter_threshold = 300;
  /// Retraining cadence (event time).
  DurationSec retrain_interval = 4 * kSecondsPerWeek;
  /// Event time between the first event and the first boundary;
  /// 0 = retrain_interval.  The driver sets this to its initial
  /// training span.
  DurationSec initial_training_delay = 0;
  /// Sliding training-set length (kSlidingWindow); history beyond it is
  /// discarded at each boundary (bounded memory).
  DurationSec training_span = 26 * kSecondsPerWeek;
  /// Training-set regime at each boundary (Figure 9).
  TrainingMode mode = TrainingMode::kSlidingWindow;
  bool use_reviser = true;
  predict::ReviserConfig reviser;
  meta::MetaLearnerConfig learner;
  predict::PredictorOptions predictor;
  /// PD self-check cadence; 0 disables ticks.
  DurationSec clock_tick = 300;
  /// Event-time delay from a boundary B to the adoption of its pool
  /// build: it is adopted exactly at B + lag, so a replay is
  /// deterministic.  0 = one prediction window.
  DurationSec adoption_lag = 0;
  /// Build on ThreadPool::shared() (ShardedEngine) instead of inline in
  /// fire() (the driver).
  bool pool_builds = false;
};

/// One finished retraining: the frozen rule set plus the bookkeeping the
/// driver reports per interval (Figure 12 churn, Table 5 timings).
struct SnapshotBuild {
  meta::RepositorySnapshot repository;
  /// Prediction window the rules were mined with (== the window the
  /// predictor must serve them with): the config's prediction_window.
  DurationSec window = 300;
  /// Boundary that scheduled the build.
  TimeSec scheduled_at = 0;
  /// Event time at which the serving side adopts the snapshot.
  TimeSec activate_at = 0;
  meta::KnowledgeRepository::Churn churn;
  meta::KnowledgeRepository::Churn churn_meta;
  std::size_t rules_from_meta = 0;
  std::size_t rules_removed_by_reviser = 0;
  meta::TrainTimes train_times;
  double revise_seconds = 0.0;
  /// Nonzero when every build attempt failed: the failure rides the
  /// build slot as *data* rather than a rethrown exception, so a pool
  /// thread's disposal of the task state never races the owner reading
  /// the error text.  `repository` is null.
  std::size_t failed_attempts = 0;
  std::string error;
  /// Stage that failed: a learner name (learners::to_string) when one
  /// base learner threw, "build" otherwise.
  std::string failed_stage;

  bool failed() const { return failed_attempts > 0; }
};

/// One abandoned retraining boundary: every build attempt threw.  The
/// serving side keeps the previously adopted snapshot — degradation the
/// report can surface, never a crash.
struct RetrainFailure {
  TimeSec boundary = 0;
  std::size_t attempts = 0;
  std::string error;
  /// Per-learner attribution: the failing learner's name
  /// (learners::to_string(RuleSource)), or "build" when the failure was
  /// not attributable to one base learner (reviser, failpoint, ...).
  std::string stage;
};

class RetrainScheduler {
 public:
  explicit RetrainScheduler(OnlineEngineConfig config);

  RetrainScheduler(const RetrainScheduler&) = delete;
  RetrainScheduler& operator=(const RetrainScheduler&) = delete;

  /// Waits for a build still running on the pool.
  ~RetrainScheduler();

  enum class BoundaryAction {
    kNone,     ///< empty training set, a build not yet adopted, or an
               ///< inline build that failed (poll() records it)
    kRetrain,  ///< a build was started (pool) or completed (inline)
    kRefresh,  ///< static mode after the first training: the owner
               ///< adopts in_force(boundary), the same rules on a fresh
               ///< predictor
  };

  /// Advances the boundary schedule to event time t.  Returns the due
  /// boundary (the latest one <= t when several were skipped), or
  /// nullopt.  The first call anchors the schedule.
  std::optional<TimeSec> boundary_due(TimeSec t);

  /// Fires a boundary: trims history per mode, skips an empty training
  /// set, and starts the build on the pool or runs it inline.  Either
  /// kind then waits in the one build slot for poll().
  BoundaryAction fire(TimeSec boundary);

  /// Appends one preprocessed event to the training history.  Events at
  /// a boundary must be observed *after* fire() so the boundary's
  /// training set is exactly the events strictly before it.
  void observe(const bgl::Event& event);

  /// The one adoption rule: hands out the build in the slot once event
  /// time t reaches its adoption point — its boundary for an inline
  /// build, boundary + adoption_lag (prediction_window when the lag is
  /// 0) for a pool build, waiting for it if it is still running.  A
  /// failed build goes to failures() instead.
  std::optional<SnapshotBuild> poll(TimeSec t);

  /// End of stream: waits for a build still in the slot and drops it
  /// unadopted (a failed one still goes to failures()).
  void join(TimeSec t);

  /// The build in force, to adopt again at a static-mode boundary: the
  /// snapshot of the last build poll() handed out (the empty snapshot
  /// before the first), scheduled and activated at `at`.
  SnapshotBuild in_force(TimeSec at) const;

  bool build_in_flight() const { return pending_.valid(); }
  const OnlineEngineConfig& config() const { return config_; }
  std::size_t history_size() const { return history_.size(); }
  /// Number of trainings actually scheduled/run (non-empty boundaries).
  std::uint64_t retrainings() const { return retrainings_; }
  /// What the builds poll() handed out cost, summed (measured on the
  /// thread that ran each build).
  const meta::TrainTimes& adopted_train_times() const {
    return adopted_train_times_;
  }
  double adopted_revise_seconds() const { return adopted_revise_seconds_; }

  /// Boundaries abandoned because every build attempt failed (the
  /// degradation log; the snapshot in force was left untouched).  Only
  /// grows at poll()/join() — i.e. on the owner's thread.
  const std::vector<RetrainFailure>& failures() const { return failures_; }

 private:
  SnapshotBuild run_build(const std::vector<bgl::Event>& training,
                          TimeSec boundary,
                          meta::RepositorySnapshot previous) const;
  SnapshotBuild run_build_with_retry(const std::vector<bgl::Event>& training,
                                     TimeSec boundary,
                                     meta::RepositorySnapshot previous) const;
  std::optional<SnapshotBuild> take_pending(TimeSec activate_at);

  OnlineEngineConfig config_;
  std::deque<bgl::Event> history_;
  std::optional<TimeSec> anchor_;
  std::optional<TimeSec> next_boundary_;
  bool trained_once_ = false;
  /// The rule set of the last build poll() handed out: the one in
  /// force, and the `previous` of the next build's diff.
  meta::RepositorySnapshot latest_;
  /// The one build slot: a pool build in flight, or an inline build
  /// already satisfied.
  std::future<SnapshotBuild> pending_;
  TimeSec pending_scheduled_ = 0;
  std::uint64_t retrainings_ = 0;
  meta::TrainTimes adopted_train_times_;
  double adopted_revise_seconds_ = 0.0;
  std::vector<RetrainFailure> failures_;
};

}  // namespace dml::online
