#include "online/driver.hpp"

#include <chrono>

#include "online/sharded_engine.hpp"

namespace dml::online {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Maps the driver's per-log configuration onto the streaming engine.
OnlineEngineConfig engine_config(const DriverConfig& config,
                                 DurationSec initial_span,
                                 DurationSec retrain_span) {
  OnlineEngineConfig ec;
  ec.prediction_window = config.prediction_window;
  ec.retrain_interval = retrain_span;
  ec.initial_training_delay = initial_span;
  ec.training_span = initial_span;
  // The driver replays curated logs; the engine's "don't learn from a
  // nearly empty history" gate would silently skip intervals the paper's
  // figures expect to exist.
  ec.min_training_events = 1;
  ec.mode = config.mode;
  ec.use_reviser = config.use_reviser;
  ec.reviser = config.reviser;
  ec.learner = config.learner;
  ec.predictor = config.predictor;
  ec.clock_tick = config.clock_tick;
  ec.adaptive_window = config.adaptive_window;
  ec.window_candidates = config.window_candidates;
  ec.validation_fraction = config.validation_fraction;
  ec.async_retrain = false;
  ec.profile = config.profile;
  return ec;
}

}  // namespace

ShardedEngineConfig sharded_config_from_driver(const DriverConfig& config,
                                               std::size_t shards,
                                               bool profile) {
  const DurationSec initial_span =
      static_cast<DurationSec>(config.training_weeks) * kSecondsPerWeek;
  const DurationSec retrain_span =
      static_cast<DurationSec>(config.retrain_weeks) * kSecondsPerWeek;
  ShardedEngineConfig sharded;
  sharded.shards = shards;
  // Serving semantics: a quarantined shard degrades the run instead of
  // aborting it.
  sharded.rethrow_worker_errors = false;
  sharded.engine = engine_config(config, initial_span, retrain_span);
  // The sharded engine forces its own tick anchoring and per-scope
  // predictor options; async retraining on the shared pool is the point
  // of the concurrent front-end.
  sharded.engine.adaptive_window = false;
  sharded.engine.async_retrain = true;
  sharded.engine.profile = profile;
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

std::array<stats::ConfusionCounts, learners::kNumRuleSources>
DriverResult::total_per_source() const {
  std::array<stats::ConfusionCounts, learners::kNumRuleSources> total{};
  for (const auto& interval : intervals) {
    for (std::size_t s = 0; s < learners::kNumRuleSources; ++s) {
      total[s] += interval.per_source[s];
    }
  }
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

  std::vector<predict::Warning> warnings;
  OnlineEngine engine(engine_config(config_, initial_span, retrain_span),
                      [&](const predict::Warning& w) {
                        warnings.push_back(w);
                        if (config_.warning_observer &&
                            w.issued_at >= serve_from) {
                          config_.warning_observer(w);
                        }
                      });

  // Streamed feed of [from, to) — the archive is never materialised
  // outside the bounded test spans below.
  std::vector<bgl::Event> batch;
  const auto feed = [&](TimeSec from, TimeSec to) {
    auto cursor = repo.scan(from, to);
    while (true) {
      batch.clear();
      if (cursor->next(batch, storage::kDefaultScanBatch) == 0) break;
      engine.consume_batch(batch);
    }
  };

  // The engine anchors its boundary schedule at the first event it sees;
  // feed it the initial training span up front so boundary k lands
  // exactly at origin + initial_span + k * retrain_span.
  std::size_t adopted = 0;
  TimeSec fed_until = origin;
  int index = 0;
  for (TimeSec test_begin = origin + initial_span; test_begin < log_end;
       test_begin += retrain_span, ++index) {
    const TimeSec test_end = std::min<TimeSec>(test_begin + retrain_span,
                                               log_end + 1);
    feed(fed_until, test_begin);
    fed_until = test_begin;

    // Pin the retraining (or static refresh) exactly at the interval
    // edge; with synchronous retraining the build completes and is
    // adopted inside this call.
    engine.advance_to(test_begin);
    warnings.clear();  // nothing before the boundary is scored

    const auto& log = engine.retrain_log();
    const bool retrained = log.size() > adopted;
    adopted = log.size();
    // Before the resume boundary an interval is served but not scored;
    // the next feed() streams its events.
    if (test_begin < serve_from) continue;

    IntervalResult interval;
    interval.index = index;
    interval.week = static_cast<int>(week_index(test_begin, origin));
    interval.test_begin = test_begin;
    interval.test_end = test_end;
    if (retrained) {
      const SnapshotBuild& build = log.back();
      interval.rules_from_meta = build.rules_from_meta;
      interval.churn_meta = build.churn_meta;
      interval.churn = build.churn;
      interval.rules_removed_by_reviser = build.rules_removed_by_reviser;
      interval.train_times = build.train_times;
      interval.revise_seconds = build.revise_seconds;
    } else {
      // Static mode after the first interval: repository unchanged.
      interval.rules_from_meta = engine.rules().size();
      interval.churn.unchanged = engine.rules().size();
    }
    interval.rules_active = engine.rules().size();
    const DurationSec window = engine.current_window();
    interval.window_used = window;

    const std::vector<bgl::Event> test_events =
        storage::materialize(repo, test_begin, test_end);
    const auto predict_start = Clock::now();
    engine.consume_batch(test_events);
    fed_until = test_begin + retrain_span;
    interval.predict_seconds = seconds_since(predict_start);

    const auto evaluation =
        predict::evaluate_predictions(test_events, warnings, window);
    interval.counts = evaluation.overall;
    interval.per_source = evaluation.per_source;
    interval.fatal_count = evaluation.total_fatals;
    interval.warning_count = evaluation.total_warnings;
    result.warnings.insert(result.warnings.end(), warnings.begin(),
                           warnings.end());

    result.intervals.push_back(std::move(interval));
  }
  result.engine_stats = engine.stats();
  const storage::IoStats io = repo.io_stats() - io_before;
  result.engine_stats.log_bytes_read = io.bytes_read;
  result.engine_stats.log_segments_opened = io.segments_opened;
  result.engine_stats.log_map_seconds = io.map_seconds;
  result.engine_stats.log_read_seconds = io.read_seconds;
  return result;
}

}  // namespace dml::online
