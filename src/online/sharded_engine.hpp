// ShardedEngine — the concurrent serving front-end: one producer thread
// (the caller of consume()) preprocesses the record stream and drives
// the retraining schedule; the surviving events are hash-partitioned by
// midplane across N shard workers, each running its own ServingCore
// against the shared rule snapshot; per-shard warning streams are merged
// back into one time-ordered callback.
//
//  - Every input form is a batch: a run of raw records is preprocessed
//    whole and its survivors cross to the shards as one run, like a run
//    of events, so a wire frame of either kind costs one crossing.  A
//    single record or event is a batch of one.
//  - Partitioning is by bgl::Location midplane, and the per-shard
//    predictors run with PredictorOptions::per_scope_state, so the
//    merged warning *multiset* is identical for any shard count
//    (tests/integration/test_sharded_determinism.cpp).
//  - One message per shard per handoff.  A handoff is the end of each
//    consume call, each adoption point and finish(); it pushes to every
//    shard one message: the build to adopt first (if any), the shard's
//    run of events (possibly empty) and the time of the last event the
//    producer routed.  The worker adopts, serves the run, advances its
//    tick grid to that time and moves its watermark there, so a shard
//    that gets no events still releases the others' warnings.
//  - Shard queues are bounded in events: a stalled shard back-pressures the
//    producer instead of growing without bound.
//  - Retraining always runs on ThreadPool::shared() (the engine forces
//    pool builds in its OnlineEngineConfig), so consume() never executes
//    training work inline.  Rules reach the shards only on a handoff
//    message: one shared build, adopted by every shard at the same
//    event-time instant (a new build, or at a static-mode boundary the
//    build in force).
//  - A shard whose worker throws is quarantined: it drains, its
//    watermark keeps advancing so the merged stream and the producer
//    never stall, and its events count as rejected.  The run goes on and
//    reports the failure in stats() and degradation_log().
//  - The warning callback is invoked serially (under the merger lock)
//    with warnings in nondecreasing issued_at order; ties are broken by
//    a fixed field order so replays are byte-stable.
//  - There is no restart path of its own: a resumed replay (`dmlfp run
//    --threads N --resume-week W`) feeds from the first event and keeps
//    the warnings issued from the resume boundary on, the driver's rule,
//    so its warnings are the uninterrupted sequence's tail.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "meta/snapshot.hpp"
#include "online/engine.hpp"
#include "online/serving.hpp"
#include "preprocess/streaming_pipeline.hpp"

namespace dml::online {

struct ShardedEngineConfig {
  /// Number of serving shards; 0 = hardware_concurrency.
  std::size_t shards = 0;
  /// Bounded per-shard queue depth in events (a message counts its
  /// events, at least one); the producer blocks when a shard falls this
  /// far behind (backpressure).  A message larger than this enters only
  /// an empty queue.
  std::size_t queue_capacity = 4096;
  /// Retraining/serving settings.  The engine forces what its partition
  /// and producer need: per-scope prediction (per_scope_state,
  /// location_scoped, absolute ticks) and pool builds.  Every build is
  /// adopted at boundary + adoption_lag (default: prediction_window), so
  /// replays stay deterministic.
  OnlineEngineConfig engine;
};

class ShardedEngine {
 public:
  using WarningCallback = std::function<void(const predict::Warning&)>;
  using SessionStats = online::SessionStats;

  ShardedEngine(ShardedEngineConfig config, WarningCallback on_warning);

  /// finish()es if the caller did not.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Producer side; records must arrive in time order.  Blocks only on
  /// shard backpressure and when the stream reaches an adoption point
  /// before its build finished (deterministic adoption).  Each form is
  /// its batch form with a batch of one.
  void consume(const bgl::RasRecord& record);
  void consume(const bgl::Event& event);

  /// Preprocesses a time-ordered run of raw records, then feeds the
  /// events that survive as one consume_batch() run: one engine
  /// crossing per run, however many records it holds.  The merged
  /// warning multiset and the failpoint evaluation sequence of each
  /// failpoint are those of consuming the records one by one.  A throw
  /// from preprocessing (`preprocess.push`) first feeds the survivors
  /// of the records before it, then propagates (DESIGN.md §13.2).
  void consume_batch(std::span<const bgl::RasRecord> records);

  /// Feeds a time-ordered run of categorized events with per-shard
  /// queue handoffs amortized: each shard receives its part of the run
  /// as one message instead of one message per event.  The merged
  /// warning multiset, schedule decisions, failpoint evaluation sequence
  /// and backpressure contract are identical to consuming the events one
  /// by one (DESIGN.md §13).
  void consume_batch(std::span<const bgl::Event> events);

  /// Flushes every shard to the global last event time, joins the
  /// workers and drains the merger.  Idempotent; returns the final
  /// aggregate stats, where a quarantined shard shows as
  /// shards_quarantined (its incident is in degradation_log()).
  SessionStats finish();

  /// Aggregate stats (call from the producer thread; shard counters are
  /// read atomically, the scheduler's are producer-owned).
  SessionStats stats() const;

  std::size_t shard_count() const { return shards_.size(); }

  /// Rule snapshot in force: the last one adopted (empty before the
  /// first).  Producer thread only, like consume(): the scheduler that
  /// holds it is producer-owned.
  meta::RepositorySnapshot rules_snapshot() const {
    return scheduler_.in_force(last_event_time_).repository;
  }

  struct ShardReport {
    std::size_t index = 0;
    std::uint64_t events = 0;
    std::uint64_t warnings = 0;
    /// Wall time the worker spent processing (not queue-waiting).
    double busy_seconds = 0.0;
    /// CPU time of the worker thread, read as it exits (0 before
    /// finish()).
    double cpu_seconds = 0.0;
  };
  /// Per-shard accounting (complete after finish()).
  std::vector<ShardReport> shard_reports() const;

  /// Every degradation incident of the session, time-ordered: abandoned
  /// retrain boundaries, quarantined shards, and a counted-skip summary
  /// when records were dropped.  Complete after finish(); safe to call
  /// from the producer thread at any time.
  std::vector<DegradationEvent> degradation_log() const;

 private:
  struct Shard;
  class WarningMerger;

  SessionStats collect_stats() const;
  /// The one producer path: every consume() call hands its events here
  /// (a run of one for the single-event forms).
  void feed_batch(std::span<const bgl::Event> events);
  /// The handoff: pushes every shard one message, carrying the pending
  /// adoption, the shard's buffered run and last_event_time_.
  void flush_feed_runs();
  void worker(std::size_t index);
  void note_quarantine(std::size_t index, TimeSec at, std::string what)
      DML_EXCLUDES(quarantine_mutex_);
  std::size_t shard_of(const bgl::Event& event) const;

  ShardedEngineConfig config_;
  WarningCallback on_warning_;

  preprocess::StreamingPipeline pipeline_;
  RetrainScheduler scheduler_;
  /// Every shard's ServingCore options, derived once from the config.
  const ServingCore::Options shard_options_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<WarningMerger> merger_;
  /// feed_batch()'s per-shard run buffers (producer-owned scratch);
  /// always empty between consume calls.
  std::vector<std::vector<bgl::Event>> feed_runs_;
  /// The build of the last adoption point; it rides every shard's next
  /// message.  Always empty between consume calls.
  std::shared_ptr<const SnapshotBuild> pending_adopt_;
  /// The raw consume_batch()'s survivors (producer-owned scratch).
  std::vector<bgl::Event> survivors_;

  // Producer-side state.
  std::uint64_t records_consumed_ = 0;
  std::uint64_t feed_rejected_ = 0;
  /// The time of the last event routed to a shard.
  TimeSec last_event_time_ = 0;
  bool finished_ = false;
  SessionStats final_stats_;

  // Quarantine incidents, appended by shard workers.
  mutable common::Mutex quarantine_mutex_;
  std::vector<DegradationEvent> quarantines_ DML_GUARDED_BY(quarantine_mutex_);
};

}  // namespace dml::online
