// What the two owners of the serving loop share: the engine configuration
// (OnlineEngineConfig), the retraining policy it maps to, the session
// accounting (SessionStats) and the degradation incidents a run reports.
//
// The loop itself — retrain at each boundary, adopt, predict until the
// next — is a RetrainScheduler and ServingCore composed twice:
// DynamicDriver::run replays a log through one synchronous pair, and
// ShardedEngine serves a stream through one asynchronous scheduler and a
// ServingCore per shard.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "online/retraining.hpp"

namespace dml::online {

/// One graceful-degradation incident, in a form reports can print: the
/// serving side kept going, this records what it gave up.
struct DegradationEvent {
  enum class Kind {
    /// A retraining boundary was abandoned after every build attempt
    /// failed; the last good snapshot stayed in force.
    kRetrainFailure,
    /// A shard worker threw; the shard drained without serving from
    /// then on, its watermark still advancing so the merged stream
    /// never stalled.
    kShardQuarantined,
    /// Summary entry: input records dropped/skipped as corrupt or by
    /// fault injection (counted, not individually logged).
    kRecordsSkipped,
  };

  Kind kind = Kind::kRetrainFailure;
  /// Event time of the incident (boundary, quarantine watermark, or end
  /// of stream for summaries).
  TimeSec at = 0;
  /// Build attempts spent (kRetrainFailure) or records lost
  /// (kRecordsSkipped).
  std::size_t count = 0;
  std::string detail;
};

std::string_view to_string(DegradationEvent::Kind kind);

/// The kRetrainFailure incident of one abandoned boundary.
DegradationEvent degradation_of(const RetrainFailure& failure);

struct OnlineEngineConfig {
  /// Wp: prediction window == rule-generation window.
  DurationSec prediction_window = 300;
  /// Filtering threshold for inline preprocessing of raw records.
  DurationSec filter_threshold = 300;
  /// Retraining cadence (event time).
  DurationSec retrain_interval = 4 * kSecondsPerWeek;
  /// Event time before the first training; 0 = retrain_interval.
  DurationSec initial_training_delay = 0;
  /// Sliding training-set length (kSlidingWindow); history beyond it is
  /// discarded (bounded memory).
  DurationSec training_span = 26 * kSecondsPerWeek;
  /// Training-set regime at each boundary (Figure 9).
  TrainingMode mode = TrainingMode::kSlidingWindow;
  bool use_reviser = true;
  predict::ReviserConfig reviser;
  meta::MetaLearnerConfig learner;
  predict::PredictorOptions predictor;
  /// PD self-check cadence; 0 disables ticks.
  DurationSec clock_tick = 300;
  /// Event-time lag from boundary to adoption of an asynchronous build;
  /// see RetrainPolicy::adoption_lag.
  DurationSec adoption_lag = 0;
};

/// The retraining policy an engine config asks for: the fields the two
/// share, copied one for one.  The driver and ShardedEngine each apply
/// their own overrides on top of this.
RetrainPolicy make_retrain_policy(const OnlineEngineConfig& config);

/// Whole-session accounting of one serving loop (DynamicDriver::run or a
/// ShardedEngine).
struct SessionStats {
  std::uint64_t records_consumed = 0;
  std::uint64_t events_after_filtering = 0;
  std::uint64_t failures_seen = 0;
  std::uint64_t warnings_issued = 0;
  std::uint64_t retrainings = 0;
  std::size_t history_size = 0;
  /// Input units dropped or skipped instead of served (corrupt
  /// records, drop failpoints) — the counted-divergence budget of a
  /// degraded run.
  std::uint64_t records_rejected = 0;
  /// Retraining boundaries abandoned after every build attempt threw.
  std::uint64_t retrain_failures = 0;
  /// Shard workers stopped by an exception (ShardedEngine only).
  std::uint64_t shards_quarantined = 0;
  /// Wall seconds spent building adopted rule sets (training +
  /// revision, summed over every adoption; measured on the build
  /// thread, so asynchronous builds overlap serving).
  double retrain_build_seconds = 0.0;
  /// Per-learner decomposition of retrain_build_seconds' training part
  /// (summed over every adoption) — the per-learner rows of the
  /// --profile retrain-build report.
  meta::TrainTimes retrain_train_times;
  /// Revision part of retrain_build_seconds.
  double retrain_revise_seconds = 0.0;
  /// Wall seconds inside the serving path: the driver's per-event
  /// observation under DriverConfig::profile (0 otherwise), or the sum
  /// of ShardedEngine's shard-worker busy time.
  double serving_seconds = 0.0;
  /// Log-I/O accounting of the backing EventRepository, filled by
  /// owners that replay from one (DynamicDriver::run, `dmlfp run
  /// --repo`); all zero for in-memory replays.  The map/read split is
  /// the "mmap vs read time" row of the --profile table.
  std::uint64_t log_bytes_read = 0;
  std::uint64_t log_segments_opened = 0;
  double log_map_seconds = 0.0;
  double log_read_seconds = 0.0;
};

}  // namespace dml::online
