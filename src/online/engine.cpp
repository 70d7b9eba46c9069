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

ServingCore::Options make_serving_options(DurationSec clock_tick,
                                          const RetrainPolicy& policy) {
  ServingCore::Options options;
  options.clock_tick = clock_tick;
  options.predictor = policy.predictor;
  options.tick_anchor = ServingCore::TickAnchor::kInterval;
  options.tick_follows_window = policy.adaptive_window;
  options.warm_retention = max_adoptable_window(policy);
  return options;
}

}  // namespace

OnlineEngine::OnlineEngine(OnlineEngineConfig config,
                           WarningCallback on_warning)
    : config_(std::move(config)),
      on_warning_(std::move(on_warning)),
      pipeline_(config_.filter_threshold),
      scheduler_(make_retrain_policy(config_)),
      serving_(make_serving_options(config_.clock_tick, scheduler_.policy())) {}

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

void OnlineEngine::adopt(SnapshotBuild build) {
  // Snapshot epoch ordering: adoptions land in nondecreasing event
  // time, so the retrain log reads as the serving timeline.
  DML_DCHECK(retrain_log_.empty() ||
             retrain_log_.back().activate_at <= build.activate_at);
  serving_.adopt(build, scratch_);
  retrain_log_.push_back(std::move(build));
}

void OnlineEngine::step(TimeSec t) {
  now_ = std::max(now_, t);
  if (const auto boundary = scheduler_.boundary_due(t)) {
    const auto action = scheduler_.fire(*boundary);
    if (action == RetrainScheduler::BoundaryAction::kRefresh) {
      serving_.refresh(*boundary, scratch_);
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
      serving_.refresh(now_, scratch_);
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
