// OnlineEngine: the deployable form of the framework.  Feed it raw RAS
// records (or pre-categorized events) as they arrive; it preprocesses
// them inline (preprocess::StreamingPipeline), retrains the meta-learner
// on schedule (RetrainScheduler — synchronously, or on the shared pool
// with an RCU snapshot swap so consume() never blocks on training), and
// invokes a callback for every failure warning — the runtime
// configuration of Figure 1 as a single embeddable object.
//
//   online::OnlineEngine engine(config, [](const predict::Warning& w) {
//     page_the_operator(w);
//   });
//   while (auto record = reader.next()) engine.consume(*record);
//
// DynamicDriver::run() replays a whole log through this same object, so
// the train/predict/retrain loop exists exactly once.  A resumed replay
// runs the same loop from the start of the log and discards what it
// served before the resume point (DriverConfig::resume_week).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "online/retraining.hpp"
#include "online/serving.hpp"
#include "preprocess/streaming_pipeline.hpp"

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
  /// Events required before the first training (avoid learning from a
  /// nearly empty history).
  std::size_t min_training_events = 200;
  /// Training-set regime at each boundary (Figure 9).
  TrainingMode mode = TrainingMode::kSlidingWindow;
  bool use_reviser = true;
  predict::ReviserConfig reviser;
  meta::MetaLearnerConfig learner;
  predict::PredictorOptions predictor;
  /// PD self-check cadence; 0 disables ticks.
  DurationSec clock_tick = 300;
  /// Adaptive prediction-window selection (§7 future work).
  bool adaptive_window = false;
  std::vector<DurationSec> window_candidates = {60, 300, 900, 1800};
  double validation_fraction = 0.25;
  /// Build rule sets on ThreadPool::shared(): consume() keeps serving
  /// the old snapshot while the new one is mined, and the swap is one
  /// atomic publish.  Off = deterministic inline training at the
  /// boundary (replay / test mode).
  bool async_retrain = false;
  /// Event-time lag from boundary to adoption in async mode; see
  /// RetrainPolicy::adoption_lag.
  DurationSec adoption_lag = 0;
  /// Time the serving path (SessionStats::serving_seconds).  Off by
  /// default: the per-event clock reads are cheap but not free.
  bool profile = false;
};

/// The retraining policy an engine config asks for: the fields the two
/// share, copied one for one.  ShardedEngine applies its overrides on
/// top of this.
RetrainPolicy make_retrain_policy(const OnlineEngineConfig& config);

class OnlineEngine {
 public:
  using WarningCallback = std::function<void(const predict::Warning&)>;

  OnlineEngine(OnlineEngineConfig config, WarningCallback on_warning);

  /// Joins any in-flight retraining.
  ~OnlineEngine();

  /// Feeds one raw record (preprocessed inline: categorize + temporal +
  /// spatial compression).  Records must arrive in time order.
  void consume(const bgl::RasRecord& record);

  /// Feeds one already-unique categorized event.
  void consume(const bgl::Event& event);

  /// Feeds a time-ordered run of categorized events.  Bit-identical to
  /// consuming them one by one — retraining boundaries, adoptions and
  /// ticks still fire between any two events of the batch, and a
  /// serving failpoint thrown mid-batch leaves exactly the prefix
  /// consumed (DESIGN.md §13).  Replay loops use this to cross the
  /// engine boundary once per buffer instead of once per event.
  void consume_batch(std::span<const bgl::Event> events);

  /// Advances the engine clock without an event: fires any due
  /// retraining boundary, adopts finished builds, and runs ticks due
  /// strictly before t.  The driver uses this to pin boundaries at its
  /// interval edges even across event gaps.
  void advance_to(TimeSec t);

  /// Forces a retraining at the current event time: joins the in-flight
  /// build if one is running (async), otherwise schedules and completes
  /// one synchronously ("schedule + join").
  void retrain_now();

  /// End of stream: joins and adopts any in-flight build.
  void finish();

  /// Rules currently in force (empty before the first training).
  const meta::KnowledgeRepository& rules() const {
    return *serving_.snapshot();
  }
  /// Pins the snapshot in force — stays valid (and immutable) across
  /// later retrainings.
  meta::RepositorySnapshot rules_snapshot() const {
    return serving_.snapshot();
  }

  /// Every adopted retraining, in adoption order (churn, timings,
  /// window — the per-interval bookkeeping the driver reports).
  const std::vector<SnapshotBuild>& retrain_log() const {
    return retrain_log_;
  }

  /// Prediction window in force (moves only in adaptive mode).
  DurationSec current_window() const { return serving_.window(); }

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
    /// revision, summed over the retrain log; measured on the build
    /// thread, so async builds overlap serving).
    double retrain_build_seconds = 0.0;
    /// Per-learner decomposition of retrain_build_seconds' training part
    /// (summed over the retrain log) — the per-learner rows of the
    /// --profile retrain-build report.
    meta::TrainTimes retrain_train_times;
    /// Revision part of retrain_build_seconds.
    double retrain_revise_seconds = 0.0;
    /// Wall seconds inside the serving path (ticks + per-event
    /// observation).  Only measured when OnlineEngineConfig::profile is
    /// set; 0 otherwise.
    double serving_seconds = 0.0;
    /// Events ShardedEngine::cold_start() replayed with their warnings
    /// suppressed before the session began (not counted in
    /// records_consumed); always 0 for OnlineEngine.
    std::uint64_t cold_start_events = 0;
    /// Log-I/O accounting of the backing EventRepository, filled by
    /// owners that replay from one (DynamicDriver::run, `dmlfp run
    /// --repo`); all zero for in-memory replays.  The map/read split is
    /// the "mmap vs read time" row of the --profile table.
    std::uint64_t log_bytes_read = 0;
    std::uint64_t log_segments_opened = 0;
    double log_map_seconds = 0.0;
    double log_read_seconds = 0.0;
  };
  SessionStats stats() const;

  /// Degradation incidents so far (abandoned retrain boundaries).
  std::vector<DegradationEvent> degradation_log() const;

  TimeSec now() const { return now_; }

 private:
  void step(TimeSec t);
  void observe(const bgl::Event& event);
  void adopt(SnapshotBuild build);
  void emit();

  OnlineEngineConfig config_;
  WarningCallback on_warning_;

  preprocess::StreamingPipeline pipeline_;
  RetrainScheduler scheduler_;
  ServingCore serving_;
  std::vector<SnapshotBuild> retrain_log_;
  std::vector<predict::Warning> scratch_;

  TimeSec now_ = 0;
  SessionStats session_;
};

}  // namespace dml::online
