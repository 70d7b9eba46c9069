#include "predict/predictor.hpp"

#include <algorithm>
#include <limits>

#include "common/annotations.hpp"
#include "common/check.hpp"

namespace dml::predict {

namespace {

/// Dense-table append at `index`, growing the table on demand.
void add_rule_at(std::vector<std::vector<const meta::StoredRule*>>& table,
                 CategoryId index, const meta::StoredRule* rule) {
  if (index >= table.size()) table.resize(index + 1);
  table[index].push_back(rule);
}

}  // namespace

Predictor::Predictor(const meta::KnowledgeRepository& repository,
                     DurationSec window, PredictorOptions options)
    : repository_(&repository), window_(window), options_(options) {
  for (const auto& stored : repository.rules()) {
    switch (stored.rule.source()) {
      case learners::RuleSource::kAssociation:
        for (CategoryId item : stored.rule.as_association()->antecedent) {
          add_rule_at(e_list_, item, &stored);
        }
        add_rule_at(by_consequent_, stored.rule.as_association()->consequent,
                    &stored);
        break;
      case learners::RuleSource::kStatistical:
        statistical_rules_.push_back(&stored);
        break;
      case learners::RuleSource::kDistribution:
        distribution_rules_.push_back(&stored);
        break;
      case learners::RuleSource::kCorrelation: {
        const auto* chain = stored.rule.as_correlation();
        if (chain->chain.empty()) break;
        add_rule_at(chain_by_last_, chain->chain.back(), &stored);
        // Fatal re-arm index: a chain predicts a specific category, like
        // an association rule.
        add_rule_at(by_consequent_, chain->consequent, &stored);
        for (CategoryId stage : chain->chain) {
          if (stage >= chain_member_.size()) {
            chain_member_.resize(stage + 1, 0);
          }
          chain_member_[stage] = 1;
        }
        // (stages - 1) gaps of at most stage_window each; floor of one
        // window so single-stage chains still arm the chain paths.
        chain_lookback_ = std::max(
            chain_lookback_,
            static_cast<DurationSec>(
                std::max<std::size_t>(1, chain->chain.size() - 1)) *
                chain->stage_window);
        break;
      }
    }
  }
  if (!options_.per_scope_state) {
    std::uint64_t max_id = 0;
    for (const auto& stored : repository.rules()) {
      max_id = std::max(max_id, stored.id);
    }
    active_by_id_.assign(max_id + 1, kNoDeadline);
  }
  // Pre-size the recent-count table over every antecedent item so the
  // E-List walk reads counts without a bounds check (events can still
  // grow it past this for categories no rule mentions).
  if (!e_list_.empty()) {
    recent_counts_.resize(e_list_.size(), 0);
    category_has_rules_.resize(e_list_.size(), 0);
    for (std::size_t c = 0; c < e_list_.size(); ++c) {
      category_has_rules_[c] = e_list_[c].empty() ? 0 : 1;
    }
  }
  // Chain stages join the relevance table: the observe_batch skip path
  // must not skip an event some chain needs to see, or the serial and
  // batched warning streams would diverge.
  if (!chain_member_.empty()) {
    if (category_has_rules_.size() < chain_member_.size()) {
      category_has_rules_.resize(chain_member_.size(), 0);
    }
    for (std::size_t c = 0; c < chain_member_.size(); ++c) {
      if (chain_member_[c]) category_has_rules_[c] = 1;
    }
  }
}

namespace {

std::uint32_t midplane_of(const bgl::Event& event) {
  return event.location.enclosing_midplane().packed();
}

std::uint64_t scoped_key(std::uint32_t midplane, CategoryId category) {
  return (static_cast<std::uint64_t>(midplane) << 16) | category;
}

}  // namespace

namespace {

/// lower_bound order of the sorted per-scope clocks.
constexpr auto kBeforeMidplane = [](const auto& clock, std::uint32_t key) {
  return clock.midplane < key;
};

}  // namespace

Predictor::ScopeClock* Predictor::find_scope_clock(std::uint32_t midplane) {
  const auto it = std::lower_bound(scope_clocks_.begin(), scope_clocks_.end(),
                                   midplane, kBeforeMidplane);
  return it != scope_clocks_.end() && it->midplane == midplane ? &*it
                                                               : nullptr;
}

Predictor::ScopeClock& Predictor::scope_clock(std::uint32_t midplane) {
  const auto it = std::lower_bound(scope_clocks_.begin(), scope_clocks_.end(),
                                   midplane, kBeforeMidplane);
  if (it != scope_clocks_.end() && it->midplane == midplane) return *it;
  return *scope_clocks_.insert(it, ScopeClock{.midplane = midplane});
}

void Predictor::refresh_pd_quiet() {
  if (!options_.per_scope_state) {
    pd_quiet_until_ = clock_.quiet_until;
    return;
  }
  TimeSec quiet = std::numeric_limits<TimeSec>::max();
  for (const ScopeClock& clock : scope_clocks_) {
    quiet = std::min(quiet, clock.quiet_until);
  }
  pd_quiet_until_ = quiet;
}

template <bool kScoped>
void DML_HOT Predictor::expire(TimeSec now) {
  const TimeSec cutoff = now - window_;
  while (!recent_.empty() && recent_.front().time <= cutoff) {
    const RecentEvent& old = recent_.front();
    // Every queued event was counted on entry; an underflow here means
    // the count table and the recency deque have diverged.
    DML_DCHECK(recent_counts_[old.category] > 0);
    --recent_counts_[old.category];
    if constexpr (kScoped) {
      auto* scoped_count =
          scoped_counts_.find(scoped_key(old.midplane, old.category));
      if (scoped_count != nullptr && --*scoped_count == 0) {
        scoped_counts_.erase(scoped_key(old.midplane, old.category));
      }
    }
    recent_.pop_front();
  }
  while (!recent_fatals_.empty() &&
         recent_fatals_.front().first <= cutoff) {
    if constexpr (kScoped) {
      const std::uint32_t midplane = recent_fatals_.front().second;
      auto* count = scoped_fatal_counts_.find(midplane);
      if (count != nullptr && --*count == 0) {
        scoped_fatal_counts_.erase(midplane);
      }
    }
    recent_fatals_.pop_front();
  }
  if (chain_lookback_ > 0) {
    // Inclusive horizon (pop strictly-older only): a stage exactly
    // stage_window before the next one still matches, mirroring the
    // graph builder's inclusive adjacency window.
    const TimeSec chain_cutoff = now - chain_lookback_;
    while (!chain_recent_.empty() &&
           chain_recent_.front().time < chain_cutoff) {
      chain_recent_.pop_front();
    }
  }
}

namespace {

std::uint64_t active_key(std::uint64_t rule_id, std::uint32_t scope,
                         bool per_scope) {
  return per_scope ? (rule_id << 32) | scope : rule_id;
}

}  // namespace

template <bool kScoped>
bool DML_HOT Predictor::match_chain(const learners::CorrelationChainRule& rule,
                            TimeSec now, std::uint32_t midplane) {
  const std::size_t stages = rule.chain.size();
  if (stages == 1) return true;  // the current event is the whole chain

  // Prefix DP over the retained chain-stage events, oldest to newest:
  // chain_scratch_[j] holds the latest time at which stages 0..j were
  // all seen in order with every consecutive gap <= stage_window.  The
  // latest completion time is the easiest to extend, so one forward
  // pass is exact — a greedy most-recent backward scan is not (taking a
  // late stage k can strand stage k-1 outside its window).
  constexpr TimeSec kUnseen = std::numeric_limits<TimeSec>::min();
  DML_ALLOW_ALLOC("prefix rewrite of a retained scratch vector; capacity "
                  "grows once to the longest chain and is then reused");
  chain_scratch_.assign(stages - 1, kUnseen);
  const DurationSec gap_limit = rule.stage_window;
  for (std::size_t i = 0; i < chain_recent_.size(); ++i) {
    const RecentEvent& past = chain_recent_[i];
    if constexpr (kScoped) {
      if (past.midplane != midplane) continue;
    }
    for (std::size_t j = 0; j + 1 < stages; ++j) {
      if (rule.chain[j] != past.category) continue;
      if (j == 0) {
        chain_scratch_[0] = past.time;
      } else if (chain_scratch_[j - 1] != kUnseen &&
                 past.time - chain_scratch_[j - 1] <= gap_limit) {
        chain_scratch_[j] = past.time;
      }
      break;  // stages within a chain are distinct categories
    }
  }
  return chain_scratch_[stages - 2] != kUnseen &&
         now - chain_scratch_[stages - 2] <= gap_limit;
}

bool DML_HOT Predictor::try_issue(std::vector<Warning>& out, TimeSec now,
                          const meta::StoredRule& rule,
                          std::optional<CategoryId> category,
                          TimeSec deadline,
                          std::optional<bgl::Location> location,
                          std::uint32_t scope) {
  // Deadline ordering: a warning's window never closes before it opens;
  // the active-warning table and the outcome matcher both assume
  // issued_at <= deadline.
  DML_DCHECK(deadline >= now);
  if (!options_.per_scope_state) {
    // Plain mode: keys are bare rule ids — one direct-indexed load
    // instead of a hash probe, on the hottest dedup-blocked path.
    TimeSec& slot = active_by_id_[rule.id];
    if (options_.deduplicate_warnings && slot != kNoDeadline &&
        slot >= now) {
      return false;
    }
    slot = deadline;
  } else {
    const std::uint64_t key = active_key(rule.id, scope, true);
    if (options_.deduplicate_warnings) {
      const auto* deadline_in_force = active_.find(key);
      if (deadline_in_force != nullptr && *deadline_in_force >= now) {
        return false;
      }
    }
    active_[key] = deadline;
  }
  Warning warning;
  warning.issued_at = now;
  warning.deadline = deadline;
  warning.category = category;
  warning.location = location;
  warning.rule_id = rule.id;
  warning.source = rule.rule.source();
  DML_ALLOW_ALLOC("warning emission appends to the caller-owned output "
                  "vector; callers reuse it so capacity is amortized");
  out.push_back(warning);
  return true;
}

void Predictor::erase_active(std::uint64_t rule_id, std::uint32_t scope) {
  if (!options_.per_scope_state) {
    active_by_id_[rule_id] = kNoDeadline;
    return;
  }
  active_.erase(active_key(rule_id, scope, true));
}

namespace {

/// a + b, clamped to TimeSec's range: a parsed rule may carry any
/// trigger.
TimeSec saturating_add(TimeSec a, DurationSec b) {
  TimeSec sum;
  if (__builtin_add_overflow(a, b, &sum)) {
    return b > 0 ? std::numeric_limits<TimeSec>::max()
                 : std::numeric_limits<TimeSec>::min();
  }
  return sum;
}

}  // namespace

void Predictor::refresh_quiet(ScopeClock& clock) {
  // With the elapsed-time base fixed until the clock's next fatal, a
  // rule cannot issue before it first triggers (last_fatal +
  // elapsed_trigger) nor while its active warning's deadline still
  // blocks deduplication — so any instant at or before the minimum of
  // those instants, minus one, leaves the clock's check a no-op.
  TimeSec quiet = std::numeric_limits<TimeSec>::max();
  for (const meta::StoredRule* stored : distribution_rules_) {
    TimeSec earliest = saturating_add(
        clock.last_fatal, stored->rule.as_distribution()->elapsed_trigger);
    if (options_.deduplicate_warnings) {
      TimeSec deadline = kNoDeadline;
      if (!options_.per_scope_state) {
        deadline = active_by_id_[stored->id];
      } else if (const auto* found = active_.find(
                     active_key(stored->id, clock.midplane, true))) {
        deadline = *found;
      }
      if (deadline != kNoDeadline) {
        earliest = std::max(earliest, saturating_add(deadline, 1));
      }
    }
    quiet = std::min(quiet, saturating_add(earliest, -1));
  }
  clock.quiet_until = quiet;
}

void DML_HOT Predictor::check_distribution_scope(std::vector<Warning>& out,
                                                 TimeSec now,
                                                 ScopeClock& clock) {
  const std::optional<bgl::Location> location =
      options_.per_scope_state
          ? std::optional<bgl::Location>(
                bgl::Location::from_packed(clock.midplane))
          : std::nullopt;
  const DurationSec elapsed = now - clock.last_fatal;
  for (const meta::StoredRule* stored : distribution_rules_) {
    const auto* rule = stored->rule.as_distribution();
    if (elapsed >= rule->elapsed_trigger) {
      const auto horizon = static_cast<DurationSec>(
          options_.pd_horizon_factor * static_cast<double>(elapsed));
      try_issue(out, now, *stored, std::nullopt,
                now + std::max(window_, horizon), location, clock.midplane);
    }
  }
  refresh_quiet(clock);
}

void DML_HOT Predictor::check_distribution(std::vector<Warning>& out,
                                            TimeSec now) {
  if (now <= pd_quiet_until_) return;
  if (!options_.per_scope_state) {
    check_distribution_scope(out, now, clock_);
  } else {
    // Clock-tick sweep: every midplane clock past its own horizon is
    // checked independently (same union of scopes however the stream
    // is partitioned), in ascending-midplane order so the emitted
    // sequence is deterministic.
    for (ScopeClock& clock : scope_clocks_) {
      if (now > clock.quiet_until) check_distribution_scope(out, now, clock);
    }
  }
  refresh_pd_quiet();
}

template <bool kScoped>
void DML_HOT Predictor::observe_impl(const bgl::Event& event,
                             std::vector<Warning>& out) {
  const TimeSec now = event.time;
  expire<kScoped>(now);

  // Plain mode never reads the midplane — skip the location decode.
  const std::uint32_t midplane = kScoped ? midplane_of(event) : 0;
  const std::optional<bgl::Location> scope =
      kScoped
          ? std::optional<bgl::Location>(bgl::Location::from_packed(midplane))
          : std::nullopt;

  bool matched = false;
  if (!event.fatal) {
    // Step 2-4 of Algorithm 2: walk the E-List of this category, and for
    // each candidate rule check its full antecedent against the recent
    // event set (which includes the current event).  In location-scoped
    // mode the antecedent must be complete *within this midplane*.
    //
    // A category outside every antecedent can never be read back — its
    // count is consulted by no rule — so such events skip the recency
    // window entirely (no push, no count, nothing to expire later).
    // On the BG/L logs that is ~85% of the non-fatal stream.
    if (event.category < e_list_.size() &&
        !e_list_[event.category].empty()) {
      DML_ALLOW_ALLOC("RingQueue append: ring storage is reused; growth "
                      "is amortized and absent at steady state");
      recent_.push_back({now, event.category, midplane});
      // recent_counts_ is pre-sized over e_list_ at construction.
      ++recent_counts_[event.category];
      if constexpr (kScoped) {
        ++scoped_counts_[scoped_key(midplane, event.category)];
      }
      for (const meta::StoredRule* stored : e_list_[event.category]) {
        const auto* rule = stored->rule.as_association();
        bool satisfied = true;
        for (CategoryId item : rule->antecedent) {
          if (kScoped
                  ? !scoped_counts_.contains(scoped_key(midplane, item))
                  : recent_counts_[item] == 0) {
            satisfied = false;
            break;
          }
        }
        if (satisfied) {
          matched = true;
          try_issue(out, now, *stored, rule->consequent, now + window_,
                    scope, midplane);
        }
      }
    }
    // Correlation chains: if this category is a chain stage, check the
    // chains it terminates (against the retained earlier stages), then
    // record it for the chains it feeds.  The warning horizon is the
    // rule's own stage_window — the mined gap bound between the final
    // stage and the failure, typically wider than Wp.
    if (chain_lookback_ > 0 && event.category < chain_member_.size() &&
        chain_member_[event.category]) {
      if (event.category < chain_by_last_.size()) {
        for (const meta::StoredRule* stored :
             chain_by_last_[event.category]) {
          const auto* rule = stored->rule.as_correlation();
          if (match_chain<kScoped>(*rule, now, midplane)) {
            matched = true;
            try_issue(out, now, *stored, rule->consequent,
                      now + rule->stage_window, scope, midplane);
          }
        }
      }
      DML_ALLOW_ALLOC("RingQueue append: ring storage is reused; growth "
                      "is amortized and absent at steady state");
      chain_recent_.push_back({now, event.category, midplane});
    }
  } else {
    DML_ALLOW_ALLOC("RingQueue append: ring storage is reused; growth "
                    "is amortized and absent at steady state");
    recent_fatals_.emplace_back(now, midplane);
    std::size_t fatals_in_scope;
    if constexpr (kScoped) {
      fatals_in_scope = ++scoped_fatal_counts_[midplane];
    } else {
      fatals_in_scope = recent_fatals_.size();
    }
    for (const meta::StoredRule* stored : statistical_rules_) {
      const auto* rule = stored->rule.as_statistical();
      if (fatals_in_scope >= static_cast<std::size_t>(rule->k)) {
        matched = true;
        // Every further failure is a fresh trigger with fresh evidence,
        // so statistical warnings re-issue per trigger event rather than
        // deduplicating against the pending one.
        erase_active(stored->id, midplane);
        try_issue(out, now, *stored, std::nullopt, now + window_, scope,
                  midplane);
      }
    }
  }

  // Mixture-of-experts fallback: the probability-distribution expert
  // speaks only when no pattern rule matched (or always, in the flat
  // ensemble ablation).  In per-scope mode an event speaks for its own
  // midplane only — other midplanes' clocks are swept by ticks — so the
  // warning stream decomposes exactly by midplane.  Inside a horizon
  // the check is a provable no-op, so the gate comes first.
  if ((!matched || !options_.mixture_precedence) && now > pd_quiet_until_) {
    if (!options_.per_scope_state) {
      check_distribution(out, now);
    } else if (ScopeClock* clock = find_scope_clock(midplane);
               clock != nullptr && now > clock->quiet_until) {
      check_distribution_scope(out, now, *clock);
      refresh_pd_quiet();
    }
  }

  if (event.fatal) {
    last_fatal_ = now;
    // A failure resolves every pending warning that predicted it:
    // re-arm the distribution rules (they predict "a failure") and the
    // association rules whose consequent is this category, so the next
    // prediction cycle isn't muted by a stale active-warning entry.
    for (const meta::StoredRule* stored : distribution_rules_) {
      erase_active(stored->id, midplane);
    }
    if (event.category < by_consequent_.size()) {
      for (const meta::StoredRule* stored : by_consequent_[event.category]) {
        erase_active(stored->id, midplane);
      }
    }
    // New elapsed-time base: re-derive this clock's horizon.
    ScopeClock& clock =
        options_.per_scope_state ? scope_clock(midplane) : clock_;
    clock.last_fatal = now;
    refresh_quiet(clock);
    refresh_pd_quiet();
  }
}

std::vector<Warning> Predictor::observe(const bgl::Event& event) {
  std::vector<Warning> out;
  observe_batch({&event, 1}, out);
  return out;
}

template <bool kScoped>
void DML_HOT Predictor::observe_run(std::span<const bgl::Event> events,
                                    std::vector<Warning>& out) {
  // Skip path: a non-fatal event whose category appears in no
  // antecedent or chain and whose time sits inside the PD quiet horizon
  // provably changes no state and emits nothing — the recency windows
  // ignore its category, and the distribution expert cannot fire on any
  // clock, its own midplane's included, before the horizon.  Deferring
  // expire() is sound because pops are monotone in `now` and every
  // state read (antecedent walk, fatal count, chain match) re-runs
  // expire first, so every split of a stream into batches stays
  // bit-identical (DESIGN.md §13).
  const std::uint8_t* has_rules = category_has_rules_.data();
  const std::size_t n_categories = category_has_rules_.size();
  for (const bgl::Event& event : events) {
    if (!event.fatal &&
        (event.category >= n_categories || !has_rules[event.category]) &&
        event.time <= pd_quiet_until_) {
      continue;
    }
    observe_impl<kScoped>(event, out);
  }
}

#if defined(__GNUC__)
// Inline the whole per-event path into the batch loop: the call
// prologue and re-loaded member state are measurable at 10ns/event.
__attribute__((flatten))
#endif
void DML_HOT Predictor::observe_batch(std::span<const bgl::Event> events,
                              std::vector<Warning>& out) {
  // One scoped-ness dispatch per batch, not per event.
  if (scoped()) {
    observe_run<true>(events, out);
  } else {
    observe_run<false>(events, out);
  }
}

void DML_HOT Predictor::tick_into(TimeSec now, std::vector<Warning>& out) {
  check_distribution(out, now);
}

void DML_HOT Predictor::tick_before(TimeSec until, TimeSec& next_tick,
                                    DurationSec interval,
                                    std::vector<Warning>& out) {
  DML_DCHECK(interval > 0);
  while (next_tick < until) {
    // Jump over the grid instants a tick provably returns from
    // untouched.  Capped below `until`, so a horizon of TimeSec max (no
    // clock yet, or no PD rule) cannot overflow the grid.
    const TimeSec quiet = std::min(until - 1, tick_quiet_until());
    if (quiet >= next_tick) {
      next_tick += ((quiet - next_tick) / interval + 1) * interval;
      if (next_tick >= until) break;
    }
    tick_into(next_tick, out);
    next_tick += interval;
  }
}

std::vector<Warning> Predictor::tick(TimeSec now) {
  std::vector<Warning> out;
  tick_into(now, out);
  return out;
}

std::vector<Warning> Predictor::run(std::span<const bgl::Event> events,
                                    DurationSec tick_interval) {
  std::vector<Warning> all;
  std::optional<TimeSec> next_tick;
  for (const auto& event : events) {
    if (tick_interval > 0) {
      if (!next_tick) next_tick = event.time + tick_interval;
      tick_before(event.time, *next_tick, tick_interval, all);
    }
    observe_batch({&event, 1}, all);
  }
  return all;
}

}  // namespace dml::predict
