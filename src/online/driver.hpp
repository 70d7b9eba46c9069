// The dynamic meta-learning driver (paper §4, Figure 3): every Wr weeks
// (the retraining window) the meta-learner and reviser are re-invoked on
// the current training set; the resulting knowledge repository serves
// the event-driven predictor until the next retraining.  The training
// set is either the whole history (dynamic-whole), a sliding recent
// window (dynamic-6mo / dynamic-3mo), or frozen at the initial span
// (static) — the four regimes of Figure 9.
//
// The replay runs the serving loop itself: one RetrainScheduler with
// inline builds and one ServingCore (interval-parity tick anchoring),
// set up from the OnlineEngineConfig it shares with ShardedEngine, with
// boundaries pinned at the interval edges so each build completes and is
// adopted right at its edge.  The driver streams the log through the
// pair and scores each interval's warnings.  A resumed run is the
// same replay with the intervals before the resume point left unscored,
// and the report reads the scored warnings from DriverResult instead of
// predicting again.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "logio/event_store.hpp"
#include "meta/meta_learner.hpp"
#include "online/engine.hpp"
#include "predict/outcome_matcher.hpp"
#include "predict/predictor.hpp"
#include "predict/reviser.hpp"

namespace dml::online {

struct DriverConfig {
  /// Wp: prediction window == rule-generation window (default 300 s).
  DurationSec prediction_window = 300;
  /// Wr: retraining cadence in weeks (default 4).
  int retrain_weeks = 4;
  TrainingMode mode = TrainingMode::kSlidingWindow;
  /// Sliding-window length; also the initial training span for every
  /// mode (paper default: six months = 26 weeks).
  int training_weeks = 26;
  bool use_reviser = true;
  predict::ReviserConfig reviser;
  meta::MetaLearnerConfig learner;
  predict::PredictorOptions predictor;
  /// Cadence of the predictor's periodic self-check (PD expert) during
  /// replay; 0 disables ticks.  Defaults to Wp.
  DurationSec clock_tick = 300;
  /// Time the serving path (per-event observation); surfaced as
  /// DriverResult::engine_stats.serving_seconds.
  bool profile = false;
  /// Restartable replay: report only from the first interval boundary at
  /// or after this week of the log (resume_boundary).  The driver still
  /// replays the log from its start, so everything from that boundary on
  /// is what an uninterrupted run produces; DriverResult holds only the
  /// intervals from the boundary on, with index/week numbering matching
  /// a full run, and warning_observer sees only the warnings issued from
  /// it on.  0 = report everything (the default).
  int resume_week = 0;
  /// Observer invoked for every warning the driver emits during the
  /// replay, in emission order, independent of interval scoring.
  /// `dmlfp run --warnings` uses it to dump the stream so the in-memory
  /// and on-disk paths can be diffed byte for byte.
  std::function<void(const predict::Warning&)> warning_observer;
};

/// Outcome of one retrain-then-predict interval.
struct IntervalResult {
  int index = 0;
  /// Week of the log (0-based, from the log's first event) at which this
  /// test interval starts — the x-axis of Figures 7 and 9-11.
  int week = 0;
  TimeSec test_begin = 0;
  TimeSec test_end = 0;

  stats::ConfusionCounts counts;
  std::array<stats::ConfusionCounts, learners::kNumRuleSources> per_source;

  /// Rule churn versus the previous interval's (revised) repository,
  /// measured on the final rule set in force.
  meta::KnowledgeRepository::Churn churn;
  /// Figure 12's breakdown: churn of the meta-learner's raw output
  /// versus the previous rules — `added`/`removed` here are "added by
  /// the meta-learner" / "removed by the meta-learner"; the reviser's
  /// removals are counted separately below.
  meta::KnowledgeRepository::Churn churn_meta;
  std::size_t rules_from_meta = 0;
  std::size_t rules_removed_by_reviser = 0;
  std::size_t rules_active = 0;

  meta::TrainTimes train_times;
  double revise_seconds = 0.0;
  double predict_seconds = 0.0;

  std::size_t fatal_count = 0;
  std::size_t warning_count = 0;

  double precision() const { return stats::precision(counts); }
  double recall() const { return stats::recall(counts); }
};

struct DriverResult {
  std::vector<IntervalResult> intervals;
  /// Every warning the intervals scored, in emission order (the
  /// concatenation of each interval's test-span warnings).
  std::vector<predict::Warning> warnings;

  /// Whole-replay accounting (records, warnings, retrain-build times,
  /// log I/O and — under DriverConfig::profile — serving wall time).
  SessionStats engine_stats;
  /// Every retraining boundary abandoned because all its build attempts
  /// threw (one kRetrainFailure each, in boundary order); the rules in
  /// force stayed as they were.
  std::vector<DegradationEvent> degradations;

  stats::ConfusionCounts total_counts() const;
  double overall_precision() const;
  double overall_recall() const;
};

/// The one DriverConfig -> ShardedEngineConfig mapping, shared by every
/// concurrent front-end (`dmlfp run --threads N` and the dmlfpd network
/// daemon), so "same flags => same warning multiset" holds across them
/// by construction.  The first training fires after the full training
/// span, as in the driver.
struct ShardedEngineConfig;  // online/sharded_engine.hpp
ShardedEngineConfig sharded_config_from_driver(const DriverConfig& config,
                                               std::size_t shards);

/// Where a run resumed at `config.resume_week` starts serving: the first
/// retraining boundary (origin + training_weeks + k * retrain_weeks) at
/// or after that week; `origin` itself, the log's first event time, when
/// resume_week is 0.  The one resume rule for the driver and for `dmlfp
/// run --threads N`.
TimeSec resume_boundary(const DriverConfig& config, TimeSec origin);

class DynamicDriver {
 public:
  explicit DynamicDriver(DriverConfig config);

  /// Runs the full train/predict/retrain loop over one log, consumed
  /// through the EventRepository interface — an in-memory EventStore
  /// and an on-disk storage::OnDiskRepository replay identically (same
  /// canonical order, byte-identical warning stream).
  DriverResult run(const storage::EventRepository& repo) const;

  const DriverConfig& config() const { return config_; }

 private:
  DriverConfig config_;
};

}  // namespace dml::online
