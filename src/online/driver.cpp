#include "online/driver.hpp"

#include <chrono>
#include <optional>
#include <span>

#include "common/check.hpp"
#include "online/serving.hpp"
#include "online/sharded_engine.hpp"

namespace dml::online {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Maps the driver's per-log configuration onto the engine settings the
/// driver and ShardedEngine share (inline builds; ShardedEngine forces
/// its own).
OnlineEngineConfig engine_config(const DriverConfig& config) {
  const DurationSec initial_span =
      static_cast<DurationSec>(config.training_weeks) * kSecondsPerWeek;
  OnlineEngineConfig ec;
  ec.prediction_window = config.prediction_window;
  ec.retrain_interval =
      static_cast<DurationSec>(config.retrain_weeks) * kSecondsPerWeek;
  ec.initial_training_delay = initial_span;
  ec.training_span = initial_span;
  ec.mode = config.mode;
  ec.use_reviser = config.use_reviser;
  ec.reviser = config.reviser;
  ec.learner = config.learner;
  ec.predictor = config.predictor;
  ec.clock_tick = config.clock_tick;
  return ec;
}

}  // namespace

ShardedEngineConfig sharded_config_from_driver(const DriverConfig& config,
                                               std::size_t shards) {
  ShardedEngineConfig sharded;
  sharded.shards = shards;
  sharded.engine = engine_config(config);
  return sharded;
}

TimeSec resume_boundary(const DriverConfig& config, TimeSec origin) {
  if (config.resume_week <= 0) return origin;
  const TimeSec resume_time =
      origin + static_cast<DurationSec>(config.resume_week) * kSecondsPerWeek;
  const DurationSec retrain_span =
      static_cast<DurationSec>(config.retrain_weeks) * kSecondsPerWeek;
  TimeSec boundary =
      origin +
      static_cast<DurationSec>(config.training_weeks) * kSecondsPerWeek;
  while (boundary < resume_time && retrain_span > 0) boundary += retrain_span;
  return boundary;
}

stats::ConfusionCounts DriverResult::total_counts() const {
  stats::ConfusionCounts total;
  for (const auto& interval : intervals) total += interval.counts;
  return total;
}

double DriverResult::overall_precision() const {
  return stats::precision(total_counts());
}

double DriverResult::overall_recall() const {
  return stats::recall(total_counts());
}

DynamicDriver::DynamicDriver(DriverConfig config) : config_(config) {}

DriverResult DynamicDriver::run(const storage::EventRepository& repo) const {
  using Clock = std::chrono::steady_clock;
  DriverResult result;
  if (repo.empty()) return result;

  const TimeSec origin = repo.first_time();
  const TimeSec log_end = repo.last_time();
  const storage::IoStats io_before = repo.io_stats();
  const DurationSec retrain_span =
      static_cast<DurationSec>(config_.retrain_weeks) * kSecondsPerWeek;
  const DurationSec initial_span =
      static_cast<DurationSec>(config_.training_weeks) * kSecondsPerWeek;

  // A resumed run replays from the log's first event like any other;
  // only what it reports starts at the resume boundary.
  const TimeSec serve_from = resume_boundary(config_, origin);

  RetrainScheduler scheduler(engine_config(config_));
  // Replay parity: ticks re-anchor at the first event after each
  // adoption, the batch driver's per-interval Predictor::run semantics.
  ServingCore serving(serving_options(scheduler.config(),
                                      ServingCore::TickAnchor::kInterval));
  SessionStats& session = result.engine_stats;
  std::optional<SnapshotBuild> last_build;
  std::size_t adoptions = 0;
  std::vector<predict::Warning> scratch;
  // Warnings emitted since the last interval edge.
  std::vector<predict::Warning> warnings;

  const auto emit = [&] {
    for (const auto& warning : scratch) {
      ++session.warnings_issued;
      warnings.push_back(warning);
      if (config_.warning_observer && warning.issued_at >= serve_from) {
        config_.warning_observer(warning);
      }
    }
    scratch.clear();
  };
  // The loop at event time t: a due boundary fires (an inline build
  // completes inside fire()), its build is adopted, and the ticks due
  // strictly before t fire.  A static-mode boundary adopts the build in
  // force again, a fresh predictor on the same rules; that is not a new
  // build, so `adoptions` and `last_build` do not count it.
  const auto step = [&](TimeSec t) {
    if (const auto boundary = scheduler.boundary_due(t)) {
      if (scheduler.fire(*boundary) ==
          RetrainScheduler::BoundaryAction::kRefresh) {
        serving.adopt(scheduler.in_force(*boundary), scratch);
      }
    }
    if (auto build = scheduler.poll(t)) {
      // Snapshot epoch ordering: adoptions land in nondecreasing time.
      DML_DCHECK(!last_build || last_build->activate_at <= build->activate_at);
      serving.adopt(*build, scratch);
      last_build = std::move(*build);
      ++adoptions;
    }
    serving.advance(t, scratch);
    emit();
  };
  // Each event steps the loop before it joins the training history, so a
  // boundary trains on the events strictly before it.
  const auto observe = [&](std::span<const bgl::Event> events) {
    for (const bgl::Event& event : events) {
      step(event.time);
      ++session.records_consumed;
      ++session.events_after_filtering;
      if (event.fatal) ++session.failures_seen;
      scheduler.observe(event);
      if (config_.profile) {
        const auto t0 = Clock::now();
        serving.observe(event, scratch);
        session.serving_seconds += seconds_since(t0);
      } else {
        serving.observe(event, scratch);
      }
      emit();
    }
  };

  // Streamed feed of [from, to) — the archive is never materialised
  // outside the bounded test spans below.
  std::vector<bgl::Event> batch;
  const auto feed = [&](TimeSec from, TimeSec to) {
    auto cursor = repo.scan(from, to);
    while (true) {
      batch.clear();
      if (cursor->next(batch, storage::kDefaultScanBatch) == 0) break;
      observe(batch);
    }
  };

  // The scheduler anchors its boundary schedule at the first event; feed
  // the initial training span up front so boundary k lands exactly at
  // origin + initial_span + k * retrain_span.
  TimeSec fed_until = origin;
  int index = 0;
  for (TimeSec test_begin = origin + initial_span; test_begin < log_end;
       test_begin += retrain_span, ++index) {
    const TimeSec test_end = std::min<TimeSec>(test_begin + retrain_span,
                                               log_end + 1);
    feed(fed_until, test_begin);
    fed_until = test_begin;

    // Pin the retraining (or static refresh) exactly at the interval
    // edge; the inline build completes and is adopted in this step.
    const std::size_t adoptions_before = adoptions;
    step(test_begin);
    warnings.clear();  // nothing before the boundary is scored
    const bool retrained = adoptions > adoptions_before;
    // Before the resume boundary an interval is served but not scored;
    // the next feed() streams its events.
    if (test_begin < serve_from) continue;

    IntervalResult interval;
    interval.index = index;
    interval.week = static_cast<int>(week_index(test_begin, origin));
    interval.test_begin = test_begin;
    interval.test_end = test_end;
    const std::size_t rules_in_force = serving.snapshot()->size();
    if (retrained) {
      const SnapshotBuild& build = *last_build;
      interval.rules_from_meta = build.rules_from_meta;
      interval.churn_meta = build.churn_meta;
      interval.churn = build.churn;
      interval.rules_removed_by_reviser = build.rules_removed_by_reviser;
      interval.train_times = build.train_times;
      interval.revise_seconds = build.revise_seconds;
    } else {
      // Static mode after the first interval: repository unchanged.
      interval.rules_from_meta = rules_in_force;
      interval.churn.unchanged = rules_in_force;
    }
    interval.rules_active = rules_in_force;

    const std::vector<bgl::Event> test_events =
        storage::materialize(repo, test_begin, test_end);
    const auto predict_start = Clock::now();
    observe(test_events);
    fed_until = test_begin + retrain_span;
    interval.predict_seconds = seconds_since(predict_start);

    const auto evaluation = predict::evaluate_predictions(
        test_events, warnings, config_.prediction_window);
    interval.counts = evaluation.overall;
    interval.per_source = evaluation.per_source;
    interval.fatal_count = evaluation.total_fatals;
    interval.warning_count = evaluation.total_warnings;
    result.warnings.insert(result.warnings.end(), warnings.begin(),
                           warnings.end());

    result.intervals.push_back(std::move(interval));
  }
  fill_retrain_stats(scheduler, session);
  for (const auto& failure : scheduler.failures()) {
    result.degradations.push_back(degradation_of(failure));
  }
  session.log_io = repo.io_stats() - io_before;
  return result;
}

}  // namespace dml::online
