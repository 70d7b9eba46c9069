#include "online/engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace dml::online {

std::string_view to_string(DegradationEvent::Kind kind) {
  switch (kind) {
    case DegradationEvent::Kind::kRetrainFailure: return "retrain-failure";
    case DegradationEvent::Kind::kShardQuarantined:
      return "shard-quarantined";
    case DegradationEvent::Kind::kRecordsSkipped: return "records-skipped";
  }
  return "unknown";
}

RetrainPolicy make_retrain_policy(const OnlineEngineConfig& config) {
  RetrainPolicy policy;
  policy.prediction_window = config.prediction_window;
  policy.retrain_interval = config.retrain_interval;
  policy.initial_training_delay = config.initial_training_delay;
  policy.training_span = config.training_span;
  policy.min_training_events = config.min_training_events;
  policy.mode = config.mode;
  policy.use_reviser = config.use_reviser;
  policy.reviser = config.reviser;
  policy.learner = config.learner;
  policy.predictor = config.predictor;
  policy.adaptive_window = config.adaptive_window;
  policy.window_candidates = config.window_candidates;
  policy.validation_fraction = config.validation_fraction;
  policy.async = config.async_retrain;
  policy.adoption_lag = config.adoption_lag;
  return policy;
}

namespace {

ServingCore::Options make_serving_options(const OnlineEngineConfig& config) {
  ServingCore::Options options;
  options.clock_tick = config.clock_tick;
  options.predictor = config.predictor;
  options.tick_anchor = config.absolute_ticks
                            ? ServingCore::TickAnchor::kAbsolute
                            : ServingCore::TickAnchor::kInterval;
  options.tick_follows_window = config.adaptive_window;
  return options;
}

}  // namespace

OnlineEngine::OnlineEngine(OnlineEngineConfig config,
                           WarningCallback on_warning)
    : config_(std::move(config)),
      on_warning_(std::move(on_warning)),
      pipeline_(config_.filter_threshold),
      scheduler_(make_retrain_policy(config_)),
      serving_(make_serving_options(config_)) {}

OnlineEngine::~OnlineEngine() = default;

void OnlineEngine::consume(const bgl::RasRecord& record) {
  ++session_.records_consumed;
  if (auto event = pipeline_.push(record)) observe(*event);
}

void OnlineEngine::consume(const bgl::Event& event) {
  ++session_.records_consumed;
  observe(event);
}

void OnlineEngine::consume_batch(std::span<const bgl::Event> events) {
  for (const bgl::Event& event : events) {
    ++session_.records_consumed;
    observe(event);
  }
}

void OnlineEngine::advance_to(TimeSec t) { step(t); }

void OnlineEngine::cold_start(const storage::EventRepository& repo,
                              TimeSec serve_from) {
  // Restart is only exact with deterministic inline builds: an async
  // build's adoption depends on wall time unless adoption_lag pins it,
  // and a fresh replay has no way to reproduce the race.
  DML_CHECK(!config_.async_retrain);
  DML_CHECK(session_.records_consumed == 0 &&
            session_.events_after_filtering == 0);
  if (repo.empty() || serve_from <= repo.first_time()) return;

  // Event time of the last adopt/refresh — serving state older than
  // this was discarded by the rebuild, so only the tail needs
  // re-observing.  No rebuild => predictor never existed => no tail.
  std::optional<TimeSec> last_rebuild;
  const auto silent_step = [&](TimeSec t) {
    now_ = std::max(now_, t);
    if (const auto boundary = scheduler_.boundary_due(t)) {
      const auto action = scheduler_.fire(*boundary);
      if (action == RetrainScheduler::BoundaryAction::kRefresh) {
        const auto warm = warm_tail(*boundary, serving_.window());
        serving_.refresh(*boundary, warm, scratch_);
        last_rebuild = *boundary;
      }
    }
    if (auto build = scheduler_.poll(now_)) {
      last_rebuild = build->activate_at;
      adopt(std::move(*build));
    }
    scratch_.clear();  // nothing before serve_from is ever emitted
  };

  auto cursor = repo.scan(repo.first_time(), serve_from);
  std::vector<bgl::Event> batch;
  while (true) {
    batch.clear();
    if (cursor->next(batch, storage::kDefaultScanBatch) == 0) break;
    for (const bgl::Event& event : batch) {
      silent_step(event.time);
      scheduler_.observe(event);
      ++session_.cold_start_events;
    }
  }
  // Fire boundaries strictly before serve_from; one exactly at
  // serve_from belongs to the resumed session (advance_to will run it).
  silent_step(serve_from - 1);

  // Re-observe the serving tail from the scheduler's history so the
  // predictor's window state, dedup memory and tick cursor match a
  // live engine at serve_from.  Interleaving advance+observe mirrors
  // the live step()/observe() order; warnings are discarded.
  if (last_rebuild.has_value()) {
    for (const auto& event : scheduler_.history()) {
      if (event.time < *last_rebuild) continue;
      serving_.advance(event.time, scratch_);
      serving_.observe(event, scratch_);
      scratch_.clear();
    }
  }
}

std::vector<bgl::Event> OnlineEngine::warm_tail(TimeSec at,
                                                DurationSec window) const {
  const auto& history = scheduler_.history();
  std::vector<bgl::Event> warm;
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    if (it->time < at - window) break;
    warm.push_back(*it);
  }
  std::reverse(warm.begin(), warm.end());
  return warm;
}

void OnlineEngine::adopt(SnapshotBuild build) {
  // Snapshot epoch ordering: adoptions land in nondecreasing event
  // time, so the retrain log reads as the serving timeline.
  DML_DCHECK(retrain_log_.empty() ||
             retrain_log_.back().activate_at <= build.activate_at);
  const auto warm = warm_tail(build.activate_at, build.window);
  serving_.adopt(build, warm, scratch_);
  retrain_log_.push_back(std::move(build));
}

void OnlineEngine::step(TimeSec t) {
  now_ = std::max(now_, t);
  if (const auto boundary = scheduler_.boundary_due(t)) {
    const auto action = scheduler_.fire(*boundary);
    if (action == RetrainScheduler::BoundaryAction::kRefresh) {
      const auto warm = warm_tail(*boundary, serving_.window());
      serving_.refresh(*boundary, warm, scratch_);
    }
  }
  if (auto build = scheduler_.poll(now_)) adopt(std::move(*build));
  serving_.advance(t, scratch_);
  emit();
}

void OnlineEngine::observe(const bgl::Event& event) {
  step(event.time);
  ++session_.events_after_filtering;
  if (event.fatal) ++session_.failures_seen;
  scheduler_.observe(event);
  if (config_.profile) {
    const auto t0 = std::chrono::steady_clock::now();
    serving_.observe(event, scratch_);
    session_.serving_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } else {
    serving_.observe(event, scratch_);
  }
  emit();
}

void OnlineEngine::retrain_now() {
  if (!scheduler_.build_in_flight()) {
    const auto action = scheduler_.fire(now_);
    if (action == RetrainScheduler::BoundaryAction::kRefresh) {
      const auto warm = warm_tail(now_, serving_.window());
      serving_.refresh(now_, warm, scratch_);
    }
  }
  if (auto build = scheduler_.join(now_)) adopt(std::move(*build));
  emit();
}

void OnlineEngine::finish() {
  if (auto build = scheduler_.join(now_)) adopt(std::move(*build));
  emit();
}

void OnlineEngine::emit() {
  for (const auto& warning : scratch_) {
    ++session_.warnings_issued;
    if (on_warning_) on_warning_(warning);
  }
  scratch_.clear();
}

OnlineEngine::SessionStats OnlineEngine::stats() const {
  SessionStats s = session_;
  s.retrainings = scheduler_.retrainings();
  s.history_size = scheduler_.history_size();
  s.records_rejected = pipeline_.stats().dropped_by_failpoint;
  s.retrain_failures = scheduler_.failures().size();
  for (const auto& build : retrain_log_) {
    s.retrain_build_seconds +=
        build.train_times.total_seconds() + build.revise_seconds;
    s.retrain_train_times += build.train_times;
    s.retrain_revise_seconds += build.revise_seconds;
  }
  return s;
}

std::vector<DegradationEvent> OnlineEngine::degradation_log() const {
  std::vector<DegradationEvent> log;
  for (const auto& failure : scheduler_.failures()) {
    log.push_back({DegradationEvent::Kind::kRetrainFailure, failure.boundary,
                   failure.attempts,
                   "retraining abandoned: " + failure.error});
  }
  const auto dropped = pipeline_.stats().dropped_by_failpoint;
  if (dropped > 0) {
    log.push_back({DegradationEvent::Kind::kRecordsSkipped, now_,
                   static_cast<std::size_t>(dropped),
                   "records dropped in preprocessing"});
  }
  return log;
}

}  // namespace dml::online
