#include "online/engine.hpp"

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

DegradationEvent degradation_of(const RetrainFailure& failure) {
  return {DegradationEvent::Kind::kRetrainFailure, failure.boundary,
          failure.attempts, "retraining abandoned: " + failure.error};
}

RetrainPolicy make_retrain_policy(const OnlineEngineConfig& config) {
  RetrainPolicy policy;
  policy.prediction_window = config.prediction_window;
  policy.retrain_interval = config.retrain_interval;
  policy.initial_training_delay = config.initial_training_delay;
  policy.training_span = config.training_span;
  policy.mode = config.mode;
  policy.use_reviser = config.use_reviser;
  policy.reviser = config.reviser;
  policy.learner = config.learner;
  policy.predictor = config.predictor;
  policy.adoption_lag = config.adoption_lag;
  return policy;
}

}  // namespace dml::online
