#include "online/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <limits>
#include <thread>
#include <tuple>

#include "bgl/location.hpp"
#include "common/annotations.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/thread_name.hpp"
#include "online/serving.hpp"

namespace dml::online {
namespace {

/// The one message producer -> shard worker: what one handoff gives a
/// shard, in the order the worker applies it.  Every handoff (the end of
/// each consume call, each adoption point, finish()) pushes exactly one
/// to every shard, so one queue push (one lock/notify) carries a whole
/// consume_batch() slice, the build adopted before it and the watermark
/// after it.
struct Message {
  /// The build to adopt first, if an adoption point preceded the run.
  /// Shared: one build fans out to every shard.
  std::shared_ptr<const SnapshotBuild> adopt;
  /// The shard's time-ordered run of events, possibly empty.  Workers
  /// serve it event by event, so failpoint and quarantine behaviour do
  /// not depend on how the stream was cut into runs.
  std::vector<bgl::Event> events;
  /// The time of the last event the producer routed: after the run the
  /// shard fires its ticks strictly before it and moves its watermark
  /// to it.  Every event a shard receives later is at or after it.
  TimeSec to = 0;
};

/// A message's share of a queue's capacity: its events, at least one.
std::size_t depth_of(const Message& message) {
  return std::max<std::size_t>(1, message.events.size());
}

/// Single-producer single-consumer queue bounded in events.  push()
/// blocks while the message would take the queue past its capacity —
/// that is the backpressure contract: a slow shard throttles the
/// producer instead of buffering without bound.  A message larger than
/// the capacity enters an empty queue, so no run can wait forever.
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  void push(Message message) DML_EXCLUDES(mutex_) {
    const std::size_t depth = depth_of(message);
    common::MutexLock lock(mutex_);
    while (depth_ > 0 && depth_ + depth > capacity_ && !closed_) {
      not_full_.wait(lock);
    }
    if (closed_) return;  // receiver died; drop to let the producer finish
    queue_.push_back(std::move(message));
    depth_ += depth;
    lock.unlock();
    not_empty_.notify_one();
  }

  /// Moves every queued message into `out`; blocks until at least one is
  /// available.  Returns false once the queue is closed and drained.
  bool pop_all(std::vector<Message>& out) DML_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    while (queue_.empty() && !closed_) not_empty_.wait(lock);
    if (queue_.empty()) return false;
    out.assign(std::move_iterator(queue_.begin()),
               std::move_iterator(queue_.end()));
    queue_.clear();
    depth_ = 0;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  void close() DML_EXCLUDES(mutex_) {
    {
      common::MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;
  common::Mutex mutex_;
  common::CondVar not_full_;
  common::CondVar not_empty_;
  std::deque<Message> queue_ DML_GUARDED_BY(mutex_);
  /// Sum of depth_of() over queue_.
  std::size_t depth_ DML_GUARDED_BY(mutex_) = 0;
  bool closed_ DML_GUARDED_BY(mutex_) = false;
};

bool warning_before(const predict::Warning& a, const predict::Warning& b) {
  const auto key = [](const predict::Warning& w) {
    return std::tuple(
        w.issued_at, w.deadline, w.rule_id, static_cast<int>(w.source),
        w.category.value_or(std::numeric_limits<CategoryId>::max()),
        w.location ? w.location->packed()
                   : std::numeric_limits<std::uint32_t>::max());
  };
  return key(a) < key(b);
}

}  // namespace

/// Reorders the per-shard warning streams into one globally time-ordered
/// callback stream.  Each shard's own stream is nondecreasing in
/// issued_at; a warning is releasable once every shard's watermark has
/// passed its issue instant.  Ties across shards are broken by a fixed
/// field order so the merged sequence is identical for any shard count.
class ShardedEngine::WarningMerger {
 public:
  WarningMerger(std::size_t shards, WarningCallback callback)
      : callback_(std::move(callback)), buffers_(shards),
        watermarks_(shards, std::numeric_limits<TimeSec>::min()) {}

  /// Called by shard workers: appends `fresh` and releases everything
  /// now below the global watermark.  The callback runs under the merger
  /// lock, so it is serial — cheap callbacks only.
  void push(std::size_t shard, std::vector<predict::Warning>& fresh,
            TimeSec watermark) DML_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    auto& buffer = buffers_[shard];
    // Contract: each shard's own stream is nondecreasing in issued_at —
    // the property release() relies on to cut buffers with one scan.
    DML_DCHECK(fresh.empty() || buffer.empty() ||
               buffer.back().issued_at <= fresh.front().issued_at);
    DML_DCHECK(std::is_sorted(fresh.begin(), fresh.end(),
                              [](const predict::Warning& a,
                                 const predict::Warning& b) {
                                return a.issued_at < b.issued_at;
                              }));
    buffer.insert(buffer.end(), fresh.begin(), fresh.end());
    // Watermarks only advance (monotone per shard by construction).
    watermarks_[shard] = std::max(watermarks_[shard], watermark);
    release(*std::min_element(watermarks_.begin(), watermarks_.end()));
  }

  /// End of stream: every remaining buffered warning goes out in order.
  void finish() DML_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    release(std::numeric_limits<TimeSec>::max());
  }

  std::uint64_t emitted() const DML_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return emitted_;
  }

 private:
  /// Emits every buffered warning with issued_at strictly below `safe`.
  /// (Strict: a shard at watermark t can still issue at t itself — a
  /// tick at t fires only when the shard moves past t.)
  void release(TimeSec safe) DML_REQUIRES(mutex_) {
    scratch_.clear();
    for (auto& buffer : buffers_) {
      auto cut = std::find_if(buffer.begin(), buffer.end(),
                              [&](const predict::Warning& w) {
                                return w.issued_at >= safe;
                              });
      scratch_.insert(scratch_.end(), buffer.begin(), cut);
      buffer.erase(buffer.begin(), cut);
    }
    std::sort(scratch_.begin(), scratch_.end(), warning_before);
    for (const auto& warning : scratch_) {
      ++emitted_;
      if (callback_) callback_(warning);
    }
  }

  WarningCallback callback_;
  mutable common::Mutex mutex_;
  /// Per-shard pending warnings, each nondecreasing in issued_at.
  std::vector<std::vector<predict::Warning>> buffers_ DML_GUARDED_BY(mutex_);
  std::vector<TimeSec> watermarks_ DML_GUARDED_BY(mutex_);
  std::vector<predict::Warning> scratch_ DML_GUARDED_BY(mutex_);
  std::uint64_t emitted_ DML_GUARDED_BY(mutex_) = 0;
};

struct ShardedEngine::Shard {
  explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

  BoundedQueue queue;
  std::thread thread;
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> fatals{0};
  std::atomic<std::uint64_t> warnings{0};
  /// Events not served: drop-failpoint skips plus everything drained
  /// after quarantine.
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<double> busy_seconds{0.0};
  /// The worker thread's CPU time, stored as the last thing it does.
  std::atomic<double> cpu_seconds{0.0};
  /// Set once by the worker when it throws; it drains from then on.
  std::atomic<bool> quarantined{false};
};

ShardedEngine::ShardedEngine(ShardedEngineConfig config,
                             WarningCallback on_warning)
    : config_([&] {
        // What the partition and a non-blocking producer need, whatever
        // the caller asked for: per-scope prediction, builds on the pool.
        config.engine.predictor.location_scoped = true;
        config.engine.predictor.per_scope_state = true;
        config.engine.pool_builds = true;
        return std::move(config);
      }()),
      on_warning_(std::move(on_warning)),
      pipeline_(config_.engine.filter_threshold),
      scheduler_(config_.engine),
      // Absolute grid: every shard ticks at the same instants regardless
      // of which events it happens to receive.
      shard_options_(serving_options(config_.engine,
                                     ServingCore::TickAnchor::kAbsolute)) {
  std::size_t n = config_.shards;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  merger_ = std::make_unique<WarningMerger>(
      n, [this](const predict::Warning& w) {
        if (on_warning_) on_warning_(w);
      });
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
  }
  feed_runs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i]->thread = std::thread([this, i] {
      common::name_this_thread("dml-shard-" + std::to_string(i));
      worker(i);
      shards_[i]->cpu_seconds.store(common::thread_cpu_seconds(),
                                    std::memory_order_relaxed);
    });
  }
}

ShardedEngine::~ShardedEngine() {
  try {
    finish();
  } catch (...) {
    // A throwing warning callback must not escape the destructor; call
    // finish() to observe it.
  }
}

std::size_t ShardedEngine::shard_of(const bgl::Event& event) const {
  return bgl::LocationHash{}(event.location.enclosing_midplane()) %
         shards_.size();
}

void ShardedEngine::consume(const bgl::RasRecord& record) {
  consume_batch(std::span<const bgl::RasRecord>(&record, 1));
}

void ShardedEngine::consume_batch(std::span<const bgl::RasRecord> records) {
  survivors_.clear();
  try {
    for (const bgl::RasRecord& record : records) {
      ++records_consumed_;
      if (auto event = pipeline_.push(record)) survivors_.push_back(*event);
    }
  } catch (...) {
    // A preprocess.push throw: the records before it are fed, as if
    // they had been consumed one by one.
    feed_batch(survivors_);
    throw;
  }
  feed_batch(survivors_);
}

void ShardedEngine::consume(const bgl::Event& event) {
  consume_batch(std::span<const bgl::Event>(&event, 1));
}

void ShardedEngine::consume_batch(std::span<const bgl::Event> events) {
  records_consumed_ += events.size();
  feed_batch(events);
}

void ShardedEngine::flush_feed_runs() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // Every shard, run or not: the message's time is what moves a quiet
    // shard's watermark and ticks.
    shards_[i]->queue.push(
        Message{pending_adopt_, std::move(feed_runs_[i]), last_event_time_});
    feed_runs_[i].clear();  // moved-from: valid and empty
  }
  pending_adopt_.reset();
}

void DML_HOT ShardedEngine::feed_batch(std::span<const bgl::Event> events) {
  // Nothing to hand over: most raw records' runs have no survivor.
  if (events.empty()) return;
  // An adoption point is a handoff: the events before it go out first,
  // and the build rides every shard's next message — a new build, or at
  // a static-mode boundary the build in force again, so each shard
  // serves the same rules on a fresh predictor.
  const auto adopt_everywhere = [this](SnapshotBuild build) {
    flush_feed_runs();
    DML_ALLOW_ALLOC("snapshot adoption: one shared_ptr per adopted build "
                    "or static boundary, never per event");
    pending_adopt_ = std::make_shared<const SnapshotBuild>(std::move(build));
  };
  try {
    for (const bgl::Event& event : events) {
      // Fault injection, once per event: `engine.feed` drop/corrupt
      // discards the event before it reaches the scheduler or any shard
      // (a counted skip); throw propagates to the producer, delay stalls
      // it.  Only the queue handoff is per run.
      switch (common::failpoint(common::failpoints::kEngineFeed)) {
        case common::FailAction::kDrop:
        case common::FailAction::kCorrupt:
          ++feed_rejected_;
          continue;
        default:
          break;
      }
      const TimeSec t = event.time;
      // Boundary/adoption decisions happen on the producer so every shard
      // sees them at the same position in its event sequence.
      if (const auto boundary = scheduler_.boundary_due(t)) {
        if (scheduler_.fire(*boundary) ==
            RetrainScheduler::BoundaryAction::kRefresh) {
          adopt_everywhere(scheduler_.in_force(*boundary));
        }
      }
      if (auto build = scheduler_.poll(t)) adopt_everywhere(std::move(*build));
      scheduler_.observe(event);
      last_event_time_ = std::max(last_event_time_, t);
      DML_ALLOW_ALLOC("a run's buffer moves into its queue message: one "
                      "allocation per run (per event for consume()), "
                      "amortized O(1) appends within it");
      feed_runs_[shard_of(event)].push_back(event);
    }
  } catch (...) {
    // A throw (engine.feed failpoint) leaves exactly the prefix before
    // it fed: hand over what is buffered, then propagate.
    flush_feed_runs();
    throw;
  }
  flush_feed_runs();
}

void ShardedEngine::note_quarantine(std::size_t index, TimeSec at,
                                    std::string what) {
  common::MutexLock lock(quarantine_mutex_);
  quarantines_.push_back({DegradationEvent::Kind::kShardQuarantined, at, 1,
                          "shard " + std::to_string(index) +
                              " quarantined: " + std::move(what)});
}

void ShardedEngine::worker(std::size_t index) {
  Shard& shard = *shards_[index];
  ServingCore core(shard_options_);
  std::vector<Message> batch;
  std::vector<predict::Warning> out;
  TimeSec watermark = std::numeric_limits<TimeSec>::min();
  // The quarantine drain advances the watermark without serving: the
  // merged stream (and the producer, via backpressure relief) must keep
  // moving even when this shard has stopped serving.  Drained events
  // count as rejected.
  const auto drain_event = [&](const bgl::Event& event) {
    watermark = std::max(watermark, event.time);
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
  };
  // One event of a run, exactly the per-event sequence: failpoint, then
  // serve, then counters and watermark.
  const auto serve_event = [&](const bgl::Event& event) {
    // Fault injection: throw quarantines this shard, delay stalls
    // its queue (backpressure), drop skips the event (counted).
    const auto action = common::failpoint(common::failpoints::kShardWorker);
    if (action == common::FailAction::kDrop ||
        action == common::FailAction::kCorrupt) {
      shard.rejected.fetch_add(1, std::memory_order_relaxed);
      watermark = std::max(watermark, event.time);
      return;
    }
    core.observe(event, out);
    shard.events.fetch_add(1, std::memory_order_relaxed);
    if (event.fatal) {
      shard.fatals.fetch_add(1, std::memory_order_relaxed);
    }
    watermark = std::max(watermark, event.time);
  };
  // A throw quarantines the shard.  The run's first unserved event (the
  // faulting one) drains first, so the recorded watermark covers it;
  // the popped messages' warnings are dropped.
  const auto quarantine = [&](const std::vector<bgl::Event>& run,
                              std::size_t& next, const std::string& what) {
    if (next < run.size()) drain_event(run[next++]);
    shard.quarantined.store(true, std::memory_order_relaxed);
    out.clear();
    note_quarantine(index, watermark, what);
  };
  while (shard.queue.pop_all(batch)) {
    const auto start = std::chrono::steady_clock::now();
    for (const Message& message : batch) {
      // Adopt, serve the run event by event, advance to the message's
      // time.  Serving event by event makes a throw mid-run quarantine
      // at the faulting event and drain only the rest, however the
      // stream was cut into runs; a quarantined shard drains the whole
      // message.
      const std::vector<bgl::Event>& run = message.events;
      std::size_t next = 0;  // run[next..] is neither served nor drained
      if (!shard.quarantined.load(std::memory_order_relaxed)) {
        try {
          if (message.adopt) core.adopt(*message.adopt, out);
          for (; next < run.size(); ++next) serve_event(run[next]);
          core.advance(message.to, out);
        } catch (const std::exception& e) {
          quarantine(run, next, e.what());
        } catch (...) {
          quarantine(run, next, "unknown exception");
        }
      }
      for (; next < run.size(); ++next) drain_event(run[next]);
      watermark = std::max(watermark, message.to);
    }
    shard.busy_seconds.store(
        shard.busy_seconds.load(std::memory_order_relaxed) +
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
        std::memory_order_relaxed);
    // Push even when quarantined or warning-free: the watermark alone
    // releases other shards' buffered warnings, keeping the merged
    // stream monotone and live.
    shard.warnings.fetch_add(out.size(), std::memory_order_relaxed);
    merger_->push(index, out, watermark);
    out.clear();
  }
}

ShardedEngine::SessionStats ShardedEngine::finish() {
  if (finished_) return final_stats_;
  finished_ = true;
  // A build still in flight past the end of the stream is abandoned
  // (identically for every shard count — it would activate after the
  // last event anyway).
  scheduler_.join(last_event_time_);
  // The last handoff advances every shard's tick grid to the same
  // global end instant; ticks fire strictly before it, matching a single
  // predictor that stops at the last event.
  flush_feed_runs();
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  merger_->finish();
  final_stats_ = collect_stats();
  return final_stats_;
}

ShardedEngine::SessionStats ShardedEngine::stats() const {
  if (finished_) return final_stats_;
  return collect_stats();
}

ShardedEngine::SessionStats ShardedEngine::collect_stats() const {
  SessionStats s;
  s.records_consumed = records_consumed_;
  s.records_rejected =
      feed_rejected_ + pipeline_.stats().dropped_by_failpoint;
  for (const auto& shard : shards_) {
    s.events_after_filtering +=
        shard->events.load(std::memory_order_relaxed);
    s.failures_seen += shard->fatals.load(std::memory_order_relaxed);
    s.records_rejected += shard->rejected.load(std::memory_order_relaxed);
    s.serving_seconds += shard->busy_seconds.load(std::memory_order_relaxed);
    if (shard->quarantined.load(std::memory_order_relaxed)) {
      ++s.shards_quarantined;
    }
  }
  s.warnings_issued = merger_->emitted();
  fill_retrain_stats(scheduler_, s);
  return s;
}

std::vector<DegradationEvent> ShardedEngine::degradation_log() const {
  std::vector<DegradationEvent> log;
  for (const auto& failure : scheduler_.failures()) {
    log.push_back(degradation_of(failure));
  }
  {
    common::MutexLock lock(quarantine_mutex_);
    log.insert(log.end(), quarantines_.begin(), quarantines_.end());
  }
  std::uint64_t skipped =
      feed_rejected_ + pipeline_.stats().dropped_by_failpoint;
  for (const auto& shard : shards_) {
    skipped += shard->rejected.load(std::memory_order_relaxed);
  }
  if (skipped > 0) {
    log.push_back({DegradationEvent::Kind::kRecordsSkipped, last_event_time_,
                   static_cast<std::size_t>(skipped),
                   "records dropped or drained without serving"});
  }
  std::stable_sort(log.begin(), log.end(),
                   [](const DegradationEvent& a, const DegradationEvent& b) {
                     return a.at < b.at;
                   });
  return log;
}

std::vector<ShardedEngine::ShardReport> ShardedEngine::shard_reports() const {
  std::vector<ShardReport> reports;
  reports.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardReport report;
    report.index = i;
    report.events = shards_[i]->events.load(std::memory_order_relaxed);
    report.warnings = shards_[i]->warnings.load(std::memory_order_relaxed);
    report.busy_seconds =
        shards_[i]->busy_seconds.load(std::memory_order_relaxed);
    report.cpu_seconds =
        shards_[i]->cpu_seconds.load(std::memory_order_relaxed);
    reports.push_back(report);
  }
  return reports;
}

}  // namespace dml::online
