// The event-driven predictor (paper Algorithm 2).
//
// From the learned rules it builds
//   F-List: rule -> its triggering event set (the antecedent), and
//   E-List: event category -> the rules whose antecedent contains it,
// keeps the most recent events within the prediction window Wp, and on
// each event occurrence checks the candidate rules.  Dispatch follows
// the mixture-of-experts precedence (§4.1): a non-fatal event consults
// association rules and correlation chains (checked when their final
// stage arrives, against a longer chain-stage window), a fatal event
// consults statistical rules, and only when no match is found does the
// probability-distribution rule get the floor.
//
// The per-event path is allocation-lean (DESIGN.md §9): the E-List and
// recent-count table are dense arrays indexed by CategoryId, the scoped
// counts / active-warning deadlines live in open-addressing flat maps
// (common/flat_map.hpp), per-midplane fatal counts are maintained
// incrementally instead of re-scanning the fatal window on every
// failure, and observe_batch() appends to a caller-owned warning buffer
// so a serving loop allocates nothing per event.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "bgl/record.hpp"
#include "common/flat_map.hpp"
#include "common/ring_queue.hpp"
#include "common/types.hpp"
#include "meta/knowledge_repository.hpp"

namespace dml::predict {

struct Warning {
  TimeSec issued_at = 0;
  /// The failure is predicted to occur in (issued_at, deadline].
  TimeSec deadline = 0;
  /// Predicted fatal category; nullopt = "a failure" (SR/PD rules).
  std::optional<CategoryId> category;
  /// Predicted midplane (location-scoped mode only); nullopt = anywhere.
  std::optional<bgl::Location> location;
  std::uint64_t rule_id = 0;
  learners::RuleSource source = learners::RuleSource::kAssociation;
};

struct PredictorOptions {
  /// Suppress re-triggering a rule while it has an unexpired warning —
  /// keeps the warning stream (and the false-alarm count) meaningful.
  bool deduplicate_warnings = true;
  /// Distribution-rule warnings stay valid for
  /// max(Wp, pd_horizon_factor * elapsed-since-last-failure): with a
  /// heavy-tailed (decreasing-hazard) inter-arrival law, the expected
  /// residual wait grows with the elapsed time, so a fixed Wp horizon
  /// would make the PD expert either blind (warn once, expire) or a
  /// siren (re-warn every Wp).  This is the interpretation under which
  /// the paper's reported PD recall (~0.5) and "many false alarms" are
  /// simultaneously reachable; see DESIGN.md.  Set to 0 to pin PD
  /// warnings to Wp like the other experts.
  double pd_horizon_factor = 6.0;
  /// Mixture-of-experts dispatch (paper Figure 6): the distribution
  /// expert speaks only when no pattern rule matched.  false = all
  /// experts run on every event (flat ensemble ablation).
  bool mixture_precedence = true;
  /// Scope warnings to the midplane of their triggering events and
  /// require the predicted failure to strike the same midplane — the
  /// "where" dimension of §1.1's "when and where to perform
  /// checkpoints".  Off by default: the paper evaluates time-only.
  bool location_scoped = false;
  /// Keep *all* expert state per midplane: the distribution expert's
  /// elapsed-since-last-failure clock, its quiet horizon, warning
  /// deduplication and rule re-arming are keyed by (rule, midplane), and
  /// an event consults the distribution expert only for its own midplane
  /// (clock ticks sweep every known midplane whose horizon has passed).
  /// Under this option the prediction stream decomposes exactly by
  /// midplane — feeding each midplane's events to a separate Predictor
  /// yields the same warning multiset as one Predictor seeing
  /// everything — which is the invariant online::ShardedEngine relies
  /// on.  Implies location_scoped.
  bool per_scope_state = false;
};

class Predictor {
 public:
  /// The repository must outlive the predictor.
  Predictor(const meta::KnowledgeRepository& repository, DurationSec window,
            PredictorOptions options = {});

  /// Feeds every event in order (events must arrive in non-decreasing
  /// time order) and appends the warnings they triggered to `out`, which
  /// is NOT cleared — serving loops reuse one buffer across calls.  The
  /// one observe entry point: a single event is a batch of one, and any
  /// split of a stream into batches yields the same warnings
  /// (DESIGN.md §13).
  void observe_batch(std::span<const bgl::Event> events,
                     std::vector<Warning>& out);

  /// Convenience wrapper: observe_batch of one event into a fresh vector.
  std::vector<Warning> observe(const bgl::Event& event);

  /// Clock tick: the online monitor's periodic self-check.  Runs only
  /// the distribution expert (elapsed-time check) — no window state is
  /// touched, so ticks and events may interleave freely as long as time
  /// never goes backwards.  Appends to `out` like observe_batch.
  void tick_into(TimeSec now, std::vector<Warning>& out);

  std::vector<Warning> tick(TimeSec now);

  /// Fires the ticks of the grid next_tick, next_tick + interval, ...
  /// that fall strictly before `until`, and leaves `next_tick` at the
  /// first grid instant at or after it.  Grid instants at or before
  /// tick_quiet_until() are jumped over, so the output and the final
  /// `next_tick` equal a tick_into at every instant.  The one tick loop
  /// of run() and online::ServingCore.
  void tick_before(TimeSec until, TimeSec& next_tick, DurationSec interval,
                   std::vector<Warning>& out);

  /// Convenience: runs a whole span and collects every warning, with
  /// PD clock ticks injected every `tick_interval` (0 = no ticks).  It
  /// skips the grid instants where a tick provably does nothing, so the
  /// result equals a tick_into at every instant.
  std::vector<Warning> run(std::span<const bgl::Event> events,
                           DurationSec tick_interval = 0);

  DurationSec window() const { return window_; }

  /// Time of the most recent *fatal* event seen (PD elapsed-time base).
  std::optional<TimeSec> last_fatal_time() const { return last_fatal_; }

 private:
  bool scoped() const {
    return options_.location_scoped || options_.per_scope_state;
  }
  template <bool kScoped>
  void expire(TimeSec now);
  /// observe_batch's loop: the skip path, then observe_impl.
  template <bool kScoped>
  void observe_run(std::span<const bgl::Event> events,
                   std::vector<Warning>& out);
  /// observe_batch's per-event body, specialized at compile time on
  /// scoped-ness so the plain serving loop carries no per-event scope
  /// branches and skips the midplane decode entirely (DESIGN.md §13).
  template <bool kScoped>
  void observe_impl(const bgl::Event& event, std::vector<Warning>& out);
  /// True when the chain's earlier stages occurred in order within
  /// chain_recent_, each consecutive pair at most stage_window apart,
  /// with the current event (at `now`) as the final stage.  Scoped mode
  /// requires every stage on the event's midplane, preserving the
  /// per-midplane decomposition ShardedEngine relies on.
  template <bool kScoped>
  bool match_chain(const learners::CorrelationChainRule& rule, TimeSec now,
                   std::uint32_t midplane);
  bool try_issue(std::vector<Warning>& out, TimeSec now,
                 const meta::StoredRule& rule,
                 std::optional<CategoryId> category, TimeSec deadline,
                 std::optional<bgl::Location> location = std::nullopt,
                 std::uint32_t scope = 0);
  void erase_active(std::uint64_t rule_id, std::uint32_t scope);
  /// Latest instant at or before which tick_into(now) returns without
  /// touching any state, and an event's distribution-expert fallback is
  /// a no-op, as of now: the PD quiet horizon (TimeSec max while no
  /// elapsed-time clock exists).  In per_scope_state mode it is the
  /// minimum over the midplane clocks' own horizons.
  TimeSec tick_quiet_until() const { return pd_quiet_until_; }

  /// One elapsed-time clock of the distribution expert: the predictor's
  /// own, or a midplane's in per_scope_state mode.
  struct ScopeClock {
    std::uint32_t midplane = 0;
    TimeSec last_fatal = 0;
    /// No distribution rule can issue on this clock at or before this
    /// instant: per rule, the later of its first trigger (last_fatal +
    /// elapsed_trigger) and the end of its active warning's dedup block
    /// (deadline + 1), minus one, minimized over the rules.  It changes
    /// only when a fatal resets the clock or a check of the clock runs.
    TimeSec quiet_until = 0;
  };
  /// Recomputes `clock.quiet_until` from its base and active warnings.
  void refresh_quiet(ScopeClock& clock);
  void check_distribution(std::vector<Warning>& out, TimeSec now);
  /// Checks every distribution rule against one clock at `now`, then
  /// refreshes the clock's horizon.  Callers skip it inside the horizon.
  void check_distribution_scope(std::vector<Warning>& out, TimeSec now,
                                ScopeClock& clock);
  /// The midplane's clock, or nullptr (sorted-vector lookup; the sweep
  /// iterates it in ascending-midplane order so tick output is
  /// deterministic).
  ScopeClock* find_scope_clock(std::uint32_t midplane);
  ScopeClock& scope_clock(std::uint32_t midplane);
  /// pd_quiet_until_ = the minimum of the clocks' horizons.
  void refresh_pd_quiet();

  const meta::KnowledgeRepository* repository_;
  DurationSec window_;
  PredictorOptions options_;

  /// E-List: category -> association rules referencing it, as a dense
  /// table indexed by CategoryId (the taxonomy is ~219 entries).
  std::vector<std::vector<const meta::StoredRule*>> e_list_;
  /// Byte-per-category mirror of "e_list_[c] is non-empty" — one L1
  /// load on the observe_batch skip path (DESIGN.md §13).
  std::vector<std::uint8_t> category_has_rules_;
  /// Fatal category -> association rules predicting it (re-arm index),
  /// dense like the E-List.
  std::vector<std::vector<const meta::StoredRule*>> by_consequent_;
  std::vector<const meta::StoredRule*> statistical_rules_;
  std::vector<const meta::StoredRule*> distribution_rules_;
  /// Correlation-chain rules indexed by their *final* stage (dense like
  /// the E-List): a chain is checked only when its last stage arrives.
  std::vector<std::vector<const meta::StoredRule*>> chain_by_last_;
  /// Byte-per-category: the category is a stage of some chain, so its
  /// events are retained in chain_recent_.  Folded into
  /// category_has_rules_ for the observe_batch skip path.
  std::vector<std::uint8_t> chain_member_;
  /// Longest lookback any chain can need: max over chain rules of
  /// (stages - 1) * stage_window.  0 = no chain rules (all chain code
  /// paths dormant).
  DurationSec chain_lookback_ = 0;

  struct RecentEvent {
    TimeSec time;
    CategoryId category;
    std::uint32_t midplane;  // packed midplane-scope location
  };
  /// Recent events within Wp plus per-category counts for O(1)
  /// antecedent checks (dense array, grown on demand).  Ring buffers,
  /// not deques: steady-state serving pushes and pops without touching
  /// the allocator (DESIGN.md §13).
  common::RingQueue<RecentEvent> recent_;
  std::vector<std::uint32_t> recent_counts_;
  /// Chain-stage events within chain_lookback_ — a separate, longer
  /// window than recent_: a chain's stride deliberately exceeds Wp.
  common::RingQueue<RecentEvent> chain_recent_;
  /// match_chain's per-prefix DP scratch (member, so steady-state
  /// matching allocates nothing).
  std::vector<TimeSec> chain_scratch_;
  /// Per-midplane per-category counts (location-scoped mode only),
  /// keyed by (midplane << 16 | category).
  common::FlatMap<std::uint64_t, std::uint32_t> scoped_counts_;
  /// Recent fatal events within Wp: (time, midplane).
  common::RingQueue<std::pair<TimeSec, std::uint32_t>> recent_fatals_;
  /// Running per-midplane fatal counts over recent_fatals_ (scoped mode
  /// only): incremented on arrival, decremented in expire(), so a fatal
  /// burst never re-scans the whole window.
  common::FlatMap<std::uint32_t, std::uint32_t> scoped_fatal_counts_;
  std::optional<TimeSec> last_fatal_;
  /// The predictor-wide elapsed-time clock (outside per_scope_state
  /// mode; valid once last_fatal_ is set).
  ScopeClock clock_;
  /// Per-midplane clocks (per_scope_state mode only), sorted by midplane
  /// so distribution sweeps are deterministic.
  std::vector<ScopeClock> scope_clocks_;

  /// Deduplication: active-warning deadline per rule id — or per
  /// (rule id << 32 | midplane) in per_scope_state mode.
  common::FlatMap<std::uint64_t, TimeSec> active_;
  /// Plain-mode deduplication fast path: rule ids are sequential per
  /// repository, so when keys are bare rule ids (per_scope_state off)
  /// the deadline table is direct-indexed instead of hashed —
  /// kNoDeadline marks an empty slot.  Sized at construction.
  static constexpr TimeSec kNoDeadline =
      std::numeric_limits<TimeSec>::min();
  std::vector<TimeSec> active_by_id_;
  /// PD quiet horizon, in every mode: at or before this instant the
  /// distribution expert provably issues nothing on any clock — every
  /// rule is untriggered until then or dedup-blocked by an active
  /// warning — so ticks, the per-event rule walk and the observe_batch
  /// skip path treat it as silent.  clock_.quiet_until outside
  /// per_scope_state mode, the minimum over scope_clocks_ in it, and
  /// TimeSec max while no clock exists.
  TimeSec pd_quiet_until_ = std::numeric_limits<TimeSec>::max();
};

}  // namespace dml::predict
