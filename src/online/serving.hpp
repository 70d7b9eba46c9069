// ServingCore — the "predict" half of the serving core: owns the
// predictor in force, puts rule sets into force through adopt() alone
// (a new build, or at a static-mode boundary the build already in
// force), and drives the PD expert's clock ticks.  This is the single
// implementation of the per-event serving loop; DynamicDriver
// replays a log through one, and ShardedEngine runs one per shard, both
// with options from one builder (serving_options).  It keeps its own
// trailing buffer of the events it observed and warms every fresh
// predictor from it, so an owner only sizes the buffer (one prediction
// window) and never supplies history.
//
// Two tick-anchoring disciplines are supported:
//  - kInterval (replay parity): ticks re-anchor at the first event after
//    each snapshot adoption, exactly the batch driver's per-interval
//    `Predictor::run` semantics (DynamicDriver's discipline).
//  - kAbsolute (sharded serving): ticks fire on the fixed grid
//    first-adoption + k * clock_tick regardless of adoptions or event
//    arrivals, so every shard of a partitioned stream ticks at the same
//    instants — the invariant that makes an N-shard run produce the
//    same warning multiset as a single shard.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/ring_queue.hpp"
#include "online/retraining.hpp"
#include "predict/predictor.hpp"

namespace dml::online {

class ServingCore {
 public:
  enum class TickAnchor { kInterval, kAbsolute };

  struct Options {
    /// PD self-check cadence; 0 disables ticks.
    DurationSec clock_tick = 300;
    predict::PredictorOptions predictor;
    TickAnchor tick_anchor = TickAnchor::kInterval;
    /// Trailing event-time span of observed events kept for warming fresh
    /// predictors; must cover the window of every build adopted.  0 keeps
    /// nothing: fresh predictors start cold.
    DurationSec warm_retention = 0;
  };

  explicit ServingCore(Options options);

  /// The one way a rule set comes into force, at build.activate_at: puts
  /// the build's snapshot in force, rebuilds the predictor for its window
  /// (deduplication cleared), warms its window state on the buffered
  /// events in [activate_at - window, activate_at) (warm-up warnings are
  /// discarded) and re-anchors or preserves the tick grid per the
  /// anchoring discipline.  In kAbsolute mode, ticks still pending before
  /// the activation instant fire first (into `out`).  A static-mode
  /// boundary adopts the build already in force
  /// (RetrainScheduler::in_force): the batch driver's
  /// fresh-Predictor-per-interval semantics.
  void adopt(const SnapshotBuild& build, std::vector<predict::Warning>& out);

  /// Fires every tick due strictly before event time t.  A sharded
  /// engine's shard advances to each handoff's time, the last event the
  /// producer routed (at finish(), the end of the stream), so every
  /// event it receives later is at or after t.  Ticks inside the
  /// predictor's PD quiet horizon are jumped over
  /// (Predictor::tick_before): they would issue nothing.
  void advance(TimeSec t, std::vector<predict::Warning>& out);

  /// advance(event.time) + predictor observation + warm-buffer upkeep.
  void observe(const bgl::Event& event, std::vector<predict::Warning>& out);

  /// observe() for each event in order.  A throw mid-batch leaves the
  /// events before the faulting one fully served.
  void observe_batch(std::span<const bgl::Event> events,
                     std::vector<predict::Warning>& out);

  /// Snapshot currently in force (empty_snapshot before first adoption).
  const meta::RepositorySnapshot& snapshot() const { return snapshot_; }

 private:
  Options options_;
  meta::RepositorySnapshot snapshot_;
  std::unique_ptr<predict::Predictor> predictor_;
  std::optional<TimeSec> next_tick_;
  /// Scratch for adoption warm-up: the buffered events inside the new
  /// predictor's window, and its discarded warm-up warnings.
  std::vector<bgl::Event> warm_scratch_;
  std::vector<predict::Warning> discard_;
  /// Observed events of the last warm_retention seconds, oldest first.
  common::RingQueue<bgl::Event> warm_buffer_;
};

/// The one options builder for both owners: the config's tick cadence
/// and predictor options, the owner's tick anchoring, and a warm buffer
/// of one prediction window.
ServingCore::Options serving_options(const OnlineEngineConfig& config,
                                     ServingCore::TickAnchor anchor);

}  // namespace dml::online
