// What the two owners of the serving loop report: the session accounting
// (SessionStats, with the one step that fills its retraining part from
// the scheduler) and the degradation incidents a run gives up.
//
// The loop itself — retrain at each boundary, adopt, predict until the
// next — is a RetrainScheduler and ServingCore composed twice under one
// OnlineEngineConfig (online/retraining.hpp): DynamicDriver::run replays
// a log through one pair with inline builds, and ShardedEngine serves a
// stream through one scheduler building on the pool and a ServingCore
// per shard.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "online/retraining.hpp"
#include "storage/event_repository.hpp"

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
  /// Per-learner training wall seconds of the adopted rule sets (summed
  /// over every adoption; measured on the build thread, so pool builds
  /// overlap serving) — the per-learner rows of the --profile
  /// retrain-build report.
  meta::TrainTimes retrain_train_times;
  /// Revision wall seconds of the adopted rule sets.
  double retrain_revise_seconds = 0.0;
  /// Wall seconds inside the serving path: the driver's per-event
  /// observation under DriverConfig::profile (0 otherwise), or the sum
  /// of ShardedEngine's shard-worker busy time.
  double serving_seconds = 0.0;
  /// Log-I/O accounting of the backing EventRepository, filled by
  /// owners that replay from one (DynamicDriver::run, `dmlfp run`); all
  /// zero for in-memory replays.  The map/read split is the "mmap vs
  /// read time" row of the --profile table.
  storage::IoStats log_io;

  /// Wall seconds spent building adopted rule sets: training + revision.
  double retrain_build_seconds() const {
    return retrain_train_times.total_seconds() + retrain_revise_seconds;
  }
};

/// The one stats step: fills `stats`' retraining fields (retrainings,
/// history size, retrain failures, and the train and revise times of
/// the builds the scheduler handed out) for either owner.
void fill_retrain_stats(const RetrainScheduler& scheduler,
                        SessionStats& stats);

}  // namespace dml::online
