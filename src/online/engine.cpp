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

void fill_retrain_stats(const RetrainScheduler& scheduler,
                        SessionStats& stats) {
  stats.retrainings = scheduler.retrainings();
  stats.history_size = scheduler.history_size();
  stats.retrain_failures = scheduler.failures().size();
  stats.retrain_train_times = scheduler.adopted_train_times();
  stats.retrain_revise_seconds = scheduler.adopted_revise_seconds();
}

}  // namespace dml::online
