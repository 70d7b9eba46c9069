// Deterministic fault injection — named failpoints compiled into the
// hot paths of the serving stack (preprocess push, log parsing, retrain
// builds, shard feed/workers, storage, network) and armed at runtime
// from tests or `dmlfp run --failpoint name=spec`.
//
// A failpoint is free when nothing is armed: the hot-path hook is one
// relaxed atomic load.  Once armed, each evaluation draws from a
// per-failpoint xoshiro stream seeded from a global seed XOR the name
// hash, so a single-threaded site triggers at a reproducible position in
// its call sequence regardless of what other sites do.
//
// Actions:
//   throw    raise FailpointError out of the instrumented call
//   delay    sleep `ms` of wall time, then continue normally
//   drop     returned to the call site: discard the unit of work
//            (record/event) and count it
//   corrupt  returned to the call site: mangle the unit of work so the
//            downstream parser/validator must reject it
//
// Spec grammar (see parse_failpoint_spec):
//   action[:p=PROB][:ms=MILLIS][:after=N][:max=N]
// e.g.  throw            — every evaluation throws
//       drop:p=0.01      — drop ~1% of evaluations
//       delay:ms=5:p=0.1 — 5 ms stall on ~10% of evaluations
//       throw:after=100:max=2 — skip 100 evaluations, then throw twice
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/rng.hpp"

namespace dml::common {

enum class FailAction { kOff, kThrow, kDelay, kDrop, kCorrupt };

std::string_view to_string(FailAction action);

/// Raised by a triggered `throw` failpoint.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(std::string name)
      : std::runtime_error("failpoint triggered: " + name),
        name_(std::move(name)) {}

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

struct FailpointSpec {
  FailAction action = FailAction::kOff;
  /// Per-evaluation trigger probability in [0, 1].
  double probability = 1.0;
  /// Wall sleep per trigger (kDelay only).
  std::uint32_t delay_ms = 1;
  /// Evaluations to let pass before the failpoint can trigger.
  std::uint64_t after = 0;
  /// Triggers after which the failpoint stops firing (0 = unlimited).
  std::uint64_t max_triggers = 0;
};

/// Parses the spec grammar above; nullopt on malformed input (with the
/// reason in *error when non-null).
std::optional<FailpointSpec> parse_failpoint_spec(std::string_view text,
                                                  std::string* error = nullptr);

/// The names compiled into the codebase.  Arming an unknown name is
/// legal (it simply never fires); these constants keep tests, the CLI
/// and the instrumented sites in sync.
namespace failpoints {
/// preprocess::StreamingPipeline::push — drop swallows the raw record.
inline constexpr std::string_view kPreprocessPush = "preprocess.push";
/// logio::RecordReader::next — corrupt mangles the line before parsing,
/// drop skips the record; both are counted in the reader's ReadStats.
inline constexpr std::string_view kLogioParse = "logio.parse";
/// RetrainScheduler's build body — throw exercises the bounded-retry /
/// keep-last-snapshot degradation path; delay simulates a slow build.
inline constexpr std::string_view kRetrainBuild = "retrain.build";
/// CorrelationLearner::learn (the event-graph build) — throw fails the
/// fourth learner specifically, exercising the scheduler's per-learner
/// failure attribution while serving keeps the last good snapshot.
inline constexpr std::string_view kCorrelationBuild =
    "learners.correlation.build";
/// ShardedEngine producer, before the shard-queue push — drop discards
/// the event (counted in SessionStats::records_rejected).
inline constexpr std::string_view kEngineFeed = "engine.feed";
/// ShardedEngine worker, per event — throw quarantines the shard, drop
/// skips the event (counted), delay stalls the queue (backpressure).
inline constexpr std::string_view kShardWorker = "shard.worker";
/// ServingCore::observe — throw/delay only; drop/corrupt are ignored
/// here because the core has no owner-visible skip counter.
inline constexpr std::string_view kServingObserve = "serving.observe";
/// storage::LogWriter::append — throw aborts before any byte is
/// written; corrupt writes a torn record prefix and then throws (the
/// simulated kill mid-write the crash-recovery chaos tier sweeps).
inline constexpr std::string_view kStorageAppend = "storage.append";
/// storage::LogWriter segment roll — throw aborts before the roll;
/// corrupt seals the segment but "crashes" before its sidecar index is
/// written, exercising the index-rebuild recovery path.
inline constexpr std::string_view kStorageRoll = "storage.roll";
/// storage::LogWriter::sync — throw simulates a failed fsync; the
/// writer refuses to report durability it does not have.
inline constexpr std::string_view kStorageSync = "storage.sync";
/// net::Daemon acceptor, per accepted connection — throw closes the new
/// connection immediately (the client sees a reset), drop refuses it
/// silently; both are counted in DaemonStats::accepts_failed.
inline constexpr std::string_view kNetAccept = "net.accept";
/// net::Daemon reactor read path, per readable wakeup — throw/corrupt
/// tears the connection down (counted), drop skips this wakeup without
/// reading (level-triggered epoll re-reports it, so the connection
/// survives with the frame merely delayed).
inline constexpr std::string_view kNetRead = "net.read";
/// net::Daemon reactor write path, per writable flush — throw tears the
/// connection down (counted); delay stalls the flush (slow-subscriber
/// backpressure).
inline constexpr std::string_view kNetWrite = "net.write";
}  // namespace failpoints

class FailpointRegistry {
 public:
  static FailpointRegistry& instance();

  struct Stats {
    std::uint64_t evaluations = 0;
    std::uint64_t triggers = 0;
  };

  /// Arms (or re-arms) a failpoint; counters for the name are reset.
  void arm(std::string_view name, FailpointSpec spec);

  /// Arms from a "name=spec" assignment; false + *error on bad input.
  bool arm_from_string(std::string_view assignment,
                       std::string* error = nullptr);

  /// Stops a failpoint from firing; its counters remain readable.
  void disarm(std::string_view name);

  /// Disarms everything and clears all counters (test isolation).
  void reset();

  /// Reseeds every per-failpoint RNG stream; takes effect for failpoints
  /// armed afterwards (arm re-derives the stream from the current seed).
  void reseed(std::uint64_t seed);

  Stats stats(std::string_view name) const;

  /// Every name ever armed since the last reset, with its counters.
  std::vector<std::pair<std::string, Stats>> all() const;

  bool any_armed() const {
    return armed_.load(std::memory_order_relaxed) > 0;
  }

  /// Slow path of failpoint(); see below.
  FailAction evaluate(std::string_view name);

 private:
  struct Entry {
    std::string name;
    FailpointSpec spec;
    Rng rng{0};
    Stats stats;
  };

  FailpointRegistry();
  Entry* find(std::string_view name) DML_REQUIRES(mutex_);
  const Entry* find(std::string_view name) const DML_REQUIRES(mutex_);
  void recount_armed() DML_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<Entry> entries_ DML_GUARDED_BY(mutex_);
  std::uint64_t seed_ DML_GUARDED_BY(mutex_);
  /// armed-count fast path: read lock-free by failpoint(); written only
  /// under mutex_ (recount_armed / reset).
  std::atomic<std::size_t> armed_{0};
};

/// The hot-path hook.  Returns kOff with one relaxed atomic load when
/// nothing is armed anywhere.  kThrow raises FailpointError from inside;
/// kDelay sleeps, then returns kDelay; kDrop/kCorrupt are returned for
/// the call site to interpret (and count).
inline FailAction failpoint(std::string_view name) {
  FailpointRegistry& registry = FailpointRegistry::instance();
  if (!registry.any_armed()) return FailAction::kOff;
  return registry.evaluate(name);
}

}  // namespace dml::common
