#include "reference_impl.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>

namespace dml::reference {

namespace {

using learners::AprioriConfig;
using learners::FrequentItemset;
using learners::Itemset;
using learners::contains_sorted;

std::optional<Itemset> join(const Itemset& a, const Itemset& b) {
  if (a.size() != b.size() || a.empty()) return std::nullopt;
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    if (a[i] != b[i]) return std::nullopt;
  }
  if (a.back() >= b.back()) return std::nullopt;
  Itemset out = a;
  out.push_back(b.back());
  return out;
}

bool all_subsets_frequent(const Itemset& candidate,
                          const std::vector<Itemset>& frequent_prev) {
  Itemset subset(candidate.size() - 1);
  for (std::size_t skip = 0; skip < candidate.size(); ++skip) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) subset[j++] = candidate[i];
    }
    if (!std::binary_search(frequent_prev.begin(), frequent_prev.end(),
                            subset)) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> count_support(
    std::span<const Itemset> transactions,
    const std::vector<Itemset>& candidates) {
  std::vector<std::uint32_t> counts(candidates.size(), 0);
  for (const Itemset& tx : transactions) {
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (contains_sorted(tx, candidates[c])) ++counts[c];
    }
  }
  return counts;
}

}  // namespace

std::vector<FrequentItemset> mine_frequent_itemsets(
    std::span<const Itemset> transactions, const AprioriConfig& config) {
  std::vector<FrequentItemset> result;
  if (transactions.empty() || config.max_items == 0) return result;
  const auto min_count = static_cast<std::uint32_t>(std::max<double>(
      1.0, std::ceil(config.min_support *
                     static_cast<double>(transactions.size()))));

  std::map<CategoryId, std::uint32_t> singles;
  for (const Itemset& tx : transactions) {
    for (CategoryId item : tx) ++singles[item];
  }
  std::vector<Itemset> frequent;  // current level, sorted
  for (const auto& [item, count] : singles) {
    if (count >= min_count) {
      frequent.push_back({item});
      result.push_back({{item}, count});
    }
  }

  for (std::size_t level = 2;
       level <= config.max_items && frequent.size() >= 2; ++level) {
    std::vector<Itemset> candidates;
    for (std::size_t i = 0; i < frequent.size(); ++i) {
      for (std::size_t j = i + 1; j < frequent.size(); ++j) {
        auto candidate = join(frequent[i], frequent[j]);
        if (!candidate) break;  // sorted: prefixes diverged for good
        if (all_subsets_frequent(*candidate, frequent)) {
          candidates.push_back(std::move(*candidate));
        }
      }
    }
    if (candidates.empty()) break;

    const auto counts = count_support(transactions, candidates);
    std::vector<Itemset> next;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] >= min_count) {
        result.push_back({candidates[c], counts[c]});
        next.push_back(std::move(candidates[c]));
      }
    }
    frequent = std::move(next);
  }
  return result;
}

std::vector<std::vector<CategoryId>> sample_negative_windows(
    std::span<const bgl::Event> events, DurationSec window,
    DurationSec stride) {
  std::vector<std::vector<CategoryId>> windows;
  if (events.empty() || stride <= 0) return windows;
  const TimeSec first = events.front().time;
  const TimeSec last = events.back().time;
  std::size_t lo = 0;
  for (TimeSec begin = first; begin + window <= last; begin += stride) {
    const TimeSec end = begin + window;
    while (lo < events.size() && events[lo].time < begin) ++lo;
    std::size_t hi = lo;
    bool has_fatal = false;
    std::vector<CategoryId> items;
    while (hi < events.size() && events[hi].time < end) {
      if (events[hi].fatal) {
        has_fatal = true;
      } else {
        items.push_back(events[hi].category);
      }
      ++hi;
    }
    if (has_fatal || items.empty()) continue;
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    windows.push_back(std::move(items));
  }
  return windows;
}

void NaiveEventGraph::accumulate(std::span<const bgl::Event> events) {
  const double tau =
      static_cast<double>(std::max<DurationSec>(1, config_.decay_tau));
  std::unordered_set<CategoryId> latest;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bgl::Event& event = events[i];
    if (event.category == kInvalidCategory) continue;
    const std::uint32_t scope =
        config_.scope_by_midplane
            ? event.location.enclosing_midplane().packed()
            : 0;
    const TimeSec horizon = event.time - config_.window;
    latest.clear();
    for (std::size_t j = i; j-- > 0;) {
      const bgl::Event& prior = events[j];
      if (prior.time < horizon) break;
      if (prior.fatal || prior.category == kInvalidCategory) continue;
      if (config_.scope_by_midplane &&
          prior.location.enclosing_midplane().packed() != scope) {
        continue;
      }
      if (!latest.insert(prior.category).second) continue;
      if (prior.category == event.category) continue;
      Edge& edge =
          edges_[(static_cast<std::uint32_t>(prior.category) << 16) |
                 event.category];
      edge.weight +=
          std::exp(-static_cast<double>(event.time - prior.time) / tau);
      edge.count += 1;
    }
    if (!event.fatal) ++occurrences_[event.category];
  }
}

std::vector<NaiveEventGraph::Predecessor> NaiveEventGraph::predecessors(
    CategoryId target) const {
  std::vector<Predecessor> out;
  for (const auto& [key, edge] : edges_) {
    if ((key & 0xFFFFu) != target) continue;
    const auto source = static_cast<CategoryId>(key >> 16);
    const double occurrences = occurrences_.at(source);
    out.push_back({source, std::min(1.0, edge.weight / occurrences),
                   edge.count});
  }
  std::sort(out.begin(), out.end(),
            [](const Predecessor& a, const Predecessor& b) {
              return a.category < b.category;
            });
  return out;
}

ReferencePredictor::ReferencePredictor(
    const meta::KnowledgeRepository& repository, DurationSec window,
    Options options)
    : repository_(&repository), window_(window), options_(options) {
  for (const auto& stored : repository.rules()) {
    switch (stored.rule.source()) {
      case learners::RuleSource::kAssociation:
        for (CategoryId item : stored.rule.as_association()->antecedent) {
          e_list_[item].push_back(&stored);
        }
        by_consequent_[stored.rule.as_association()->consequent].push_back(
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
        chain_by_last_[chain->chain.back()].push_back(&stored);
        by_consequent_[chain->consequent].push_back(&stored);
        for (CategoryId stage : chain->chain) chain_member_[stage] = true;
        chain_lookback_ = std::max(
            chain_lookback_,
            static_cast<DurationSec>(
                std::max<std::size_t>(1, chain->chain.size() - 1)) *
                chain->stage_window);
        break;
      }
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

std::uint64_t active_key(std::uint64_t rule_id, std::uint32_t scope,
                         bool per_scope) {
  return per_scope ? (rule_id << 32) | scope : rule_id;
}

}  // namespace

void ReferencePredictor::expire(TimeSec now) {
  while (!recent_.empty() && recent_.front().time <= now - window_) {
    const RecentEvent& old = recent_.front();
    auto it = recent_counts_.find(old.category);
    if (it != recent_counts_.end() && --it->second == 0) {
      recent_counts_.erase(it);
    }
    if (scoped()) {
      auto scoped_it =
          scoped_counts_.find(scoped_key(old.midplane, old.category));
      if (scoped_it != scoped_counts_.end() && --scoped_it->second == 0) {
        scoped_counts_.erase(scoped_it);
      }
    }
    recent_.pop_front();
  }
  while (!recent_fatals_.empty() &&
         recent_fatals_.front().first <= now - window_) {
    recent_fatals_.pop_front();
  }
  while (!chain_recent_.empty() &&
         chain_recent_.front().time < now - chain_lookback_) {
    chain_recent_.pop_front();
  }
}

bool ReferencePredictor::chain_completed(
    const learners::CorrelationChainRule& rule, TimeSec now,
    std::uint32_t midplane) const {
  const std::size_t stages = rule.chain.size();
  if (stages == 1) return true;  // the current event is the whole chain
  // Exhaustive search, deliberately different from the predictor's
  // prefix DP: enumerate every in-arrival-order assignment of retained
  // events to stages 0..n-2 with all consecutive gaps (and the gap to
  // `now`) within the rule's stage window.
  struct Candidate {
    std::size_t arrival;  // position in chain_recent_ (arrival order)
    TimeSec time;
  };
  std::vector<std::vector<Candidate>> candidates(stages - 1);
  for (std::size_t i = 0; i < chain_recent_.size(); ++i) {
    const RecentEvent& past = chain_recent_[i];
    if (scoped() && past.midplane != midplane) continue;
    for (std::size_t j = 0; j + 1 < stages; ++j) {
      if (rule.chain[j] == past.category) {
        candidates[j].push_back({i, past.time});
      }
    }
  }
  struct Search {
    const std::vector<std::vector<Candidate>>& candidates;
    DurationSec gap;
    TimeSec now;
    // True if stages `stage`..n-2 can be assigned arrival-ordered events
    // after `previous` with every consecutive gap — including last
    // retained stage to `now` — at most `gap`.
    bool feasible(std::size_t stage, const Candidate& previous) const {
      if (stage == candidates.size()) return now - previous.time <= gap;
      for (const Candidate& c : candidates[stage]) {
        if (c.arrival <= previous.arrival || c.time - previous.time > gap) {
          continue;
        }
        if (feasible(stage + 1, c)) return true;
      }
      return false;
    }
  };
  const Search search{candidates, rule.stage_window, now};
  for (const Candidate& first : candidates[0]) {
    if (search.feasible(1, first)) return true;
  }
  return false;
}

bool ReferencePredictor::try_issue(std::vector<Warning>& out, TimeSec now,
                                   const meta::StoredRule& rule,
                                   std::optional<CategoryId> category,
                                   TimeSec deadline,
                                   std::optional<bgl::Location> location,
                                   std::uint32_t scope) {
  const std::uint64_t key =
      active_key(rule.id, scope, options_.per_scope_state);
  if (options_.deduplicate_warnings) {
    const auto it = active_.find(key);
    if (it != active_.end() && it->second >= now) return false;
  }
  Warning warning;
  warning.issued_at = now;
  warning.deadline = deadline;
  warning.category = category;
  warning.location = location;
  warning.rule_id = rule.id;
  warning.source = rule.rule.source();
  active_[key] = warning.deadline;
  out.push_back(warning);
  return true;
}

void ReferencePredictor::erase_active(std::uint64_t rule_id,
                                      std::uint32_t scope) {
  active_.erase(active_key(rule_id, scope, options_.per_scope_state));
}

void ReferencePredictor::check_distribution_scope(std::vector<Warning>& out,
                                                  TimeSec now,
                                                  std::uint32_t midplane,
                                                  TimeSec last_fatal) {
  const DurationSec elapsed = now - last_fatal;
  for (const meta::StoredRule* stored : distribution_rules_) {
    const auto* rule = stored->rule.as_distribution();
    if (elapsed >= rule->elapsed_trigger) {
      const auto horizon = static_cast<DurationSec>(
          options_.pd_horizon_factor * static_cast<double>(elapsed));
      try_issue(out, now, *stored, std::nullopt,
                now + std::max(window_, horizon),
                bgl::Location::from_packed(midplane), midplane);
    }
  }
}

void ReferencePredictor::check_distribution(std::vector<Warning>& out,
                                            TimeSec now) {
  if (options_.per_scope_state) {
    // Ascending-midplane sweep (see the header note on determinism).
    std::vector<std::uint32_t> midplanes;
    midplanes.reserve(last_fatal_by_scope_.size());
    for (const auto& [midplane, last] : last_fatal_by_scope_) {
      midplanes.push_back(midplane);
    }
    std::sort(midplanes.begin(), midplanes.end());
    for (std::uint32_t midplane : midplanes) {
      check_distribution_scope(out, now, midplane,
                               last_fatal_by_scope_.at(midplane));
    }
    return;
  }
  if (!last_fatal_.has_value()) return;
  const DurationSec elapsed = now - *last_fatal_;
  for (const meta::StoredRule* stored : distribution_rules_) {
    const auto* rule = stored->rule.as_distribution();
    if (elapsed >= rule->elapsed_trigger) {
      const auto horizon = static_cast<DurationSec>(
          options_.pd_horizon_factor * static_cast<double>(elapsed));
      try_issue(out, now, *stored, std::nullopt,
                now + std::max(window_, horizon));
    }
  }
}

EveryTickServing::EveryTickServing(online::ServingCore::Options options)
    : options_(options), snapshot_(meta::empty_snapshot()) {}

void EveryTickServing::adopt(const online::SnapshotBuild& build,
                             std::vector<predict::Warning>& out) {
  using online::ServingCore;
  const TimeSec at = build.activate_at;
  if (options_.tick_anchor == ServingCore::TickAnchor::kAbsolute) {
    advance(at, out);
  } else {
    next_tick_.reset();
  }
  snapshot_ = build.repository;
  predictor_ = std::make_unique<predict::Predictor>(*snapshot_, build.window,
                                                    options_.predictor);
  std::vector<bgl::Event> warm;
  for (const bgl::Event& event : warm_buffer_) {
    if (event.time >= at - build.window && event.time < at) {
      warm.push_back(event);
    }
  }
  std::vector<predict::Warning> discard;
  predictor_->observe_batch(warm, discard);
  if (options_.tick_anchor == ServingCore::TickAnchor::kAbsolute &&
      !next_tick_ && options_.clock_tick > 0) {
    next_tick_ = at + options_.clock_tick;
  }
}

void EveryTickServing::advance(TimeSec t, std::vector<predict::Warning>& out) {
  while (predictor_ && next_tick_ && *next_tick_ < t) {
    predictor_->tick_into(*next_tick_, out);
    *next_tick_ += options_.clock_tick;
  }
}

void EveryTickServing::observe(const bgl::Event& event,
                               std::vector<predict::Warning>& out) {
  advance(event.time, out);
  if (options_.tick_anchor == online::ServingCore::TickAnchor::kInterval &&
      predictor_ && !next_tick_ && options_.clock_tick > 0) {
    next_tick_ = event.time + options_.clock_tick;
  }
  if (predictor_) predictor_->observe_batch({&event, 1}, out);
  if (options_.warm_retention > 0) {
    warm_buffer_.push_back(event);
    while (!warm_buffer_.empty() &&
           warm_buffer_.front().time < event.time - options_.warm_retention) {
      warm_buffer_.pop_front();
    }
  }
}

std::vector<ReferencePredictor::Warning> ReferencePredictor::observe(
    const bgl::Event& event) {
  std::vector<Warning> out;
  const TimeSec now = event.time;
  expire(now);

  const std::uint32_t midplane = midplane_of(event);
  const std::optional<bgl::Location> scope =
      scoped()
          ? std::optional<bgl::Location>(bgl::Location::from_packed(midplane))
          : std::nullopt;

  bool matched = false;
  if (!event.fatal) {
    recent_.push_back({now, event.category, midplane});
    ++recent_counts_[event.category];
    if (scoped()) {
      ++scoped_counts_[scoped_key(midplane, event.category)];
    }
    auto item_present = [&](CategoryId item) {
      return scoped() ? scoped_counts_.contains(scoped_key(midplane, item))
                      : recent_counts_.contains(item);
    };
    const auto it = e_list_.find(event.category);
    if (it != e_list_.end()) {
      for (const meta::StoredRule* stored : it->second) {
        const auto* rule = stored->rule.as_association();
        const bool satisfied = std::all_of(rule->antecedent.begin(),
                                           rule->antecedent.end(),
                                           item_present);
        if (satisfied) {
          matched = true;
          try_issue(out, now, *stored, rule->consequent, now + window_,
                    scope, midplane);
        }
      }
    }
    // Correlation chains: check the chains this category terminates,
    // then retain the event for the chains it feeds.  The warning
    // horizon is the rule's own stage window, not Wp.
    if (chain_member_.contains(event.category)) {
      const auto chains = chain_by_last_.find(event.category);
      if (chains != chain_by_last_.end()) {
        for (const meta::StoredRule* stored : chains->second) {
          const auto* rule = stored->rule.as_correlation();
          if (chain_completed(*rule, now, midplane)) {
            matched = true;
            try_issue(out, now, *stored, rule->consequent,
                      now + rule->stage_window, scope, midplane);
          }
        }
      }
      chain_recent_.push_back({now, event.category, midplane});
    }
  } else {
    recent_fatals_.emplace_back(now, midplane);
    const std::size_t fatals_in_scope =
        scoped() ? static_cast<std::size_t>(std::count_if(
                       recent_fatals_.begin(), recent_fatals_.end(),
                       [&](const auto& f) { return f.second == midplane; }))
                 : recent_fatals_.size();
    for (const meta::StoredRule* stored : statistical_rules_) {
      const auto* rule = stored->rule.as_statistical();
      if (fatals_in_scope >= static_cast<std::size_t>(rule->k)) {
        matched = true;
        erase_active(stored->id, midplane);
        try_issue(out, now, *stored, std::nullopt, now + window_, scope,
                  midplane);
      }
    }
  }

  if (!matched || !options_.mixture_precedence) {
    if (options_.per_scope_state) {
      const auto it = last_fatal_by_scope_.find(midplane);
      if (it != last_fatal_by_scope_.end()) {
        check_distribution_scope(out, now, midplane, it->second);
      }
    } else {
      check_distribution(out, now);
    }
  }

  if (event.fatal) {
    last_fatal_ = now;
    if (options_.per_scope_state) last_fatal_by_scope_[midplane] = now;
    for (const meta::StoredRule* stored : distribution_rules_) {
      erase_active(stored->id, midplane);
    }
    const auto it = by_consequent_.find(event.category);
    if (it != by_consequent_.end()) {
      for (const meta::StoredRule* stored : it->second) {
        erase_active(stored->id, midplane);
      }
    }
  }
  return out;
}

std::vector<ReferencePredictor::Warning> ReferencePredictor::tick(
    TimeSec now) {
  std::vector<Warning> out;
  check_distribution(out, now);
  return out;
}

std::vector<ReferencePredictor::Warning> ReferencePredictor::run(
    std::span<const bgl::Event> events, DurationSec tick_interval) {
  std::vector<Warning> all;
  std::optional<TimeSec> next_tick;
  for (const auto& event : events) {
    if (tick_interval > 0) {
      if (!next_tick) next_tick = event.time + tick_interval;
      while (*next_tick < event.time) {
        auto ticked = tick(*next_tick);
        all.insert(all.end(), ticked.begin(), ticked.end());
        *next_tick += tick_interval;
      }
    }
    auto warnings = observe(event);
    all.insert(all.end(), warnings.begin(), warnings.end());
  }
  return all;
}

// ---- CRC-32 ---------------------------------------------------------------

std::uint32_t crc32_bytewise(const void* data, std::size_t size,
                             std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// ---- Preprocess chain ---------------------------------------------------

std::optional<CategoryId> classify(const bgl::Taxonomy& taxonomy,
                                   bgl::Facility facility, Severity severity,
                                   std::string_view entry_data) {
  // Longest-pattern match wins: "uncorrectable error detected in edram
  // bank (code 1)" must not be shadowed by its un-suffixed sibling.
  const bgl::EventCategory* best = nullptr;
  for (CategoryId id : taxonomy.facility_ids(facility)) {
    const bgl::EventCategory& cat = taxonomy.category(id);
    if (cat.severity != severity) continue;
    if (entry_data.find(cat.pattern) == std::string_view::npos) continue;
    if (best == nullptr || cat.pattern.size() > best->pattern.size()) {
      best = &cat;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id;
}

PreprocessChain::PreprocessChain(DurationSec threshold,
                                 const bgl::Taxonomy& taxonomy)
    : taxonomy_(&taxonomy), threshold_(threshold) {}

std::size_t PreprocessChain::SpatialKeyHash::operator()(
    const SpatialKey& k) const {
  std::uint64_t z = k.entry_hash ^ (static_cast<std::uint64_t>(k.job) << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

std::optional<PreprocessChain::CategorizedRecord> PreprocessChain::categorize(
    const bgl::RasRecord& record) {
  const auto category = classify(*taxonomy_, record.facility, record.severity,
                                 record.entry_data);
  if (!category) {
    ++categorizer_stats_.unclassified;
    return std::nullopt;
  }
  ++categorizer_stats_.classified;
  const auto& cat = taxonomy_->category(*category);
  if (record.is_fatal_severity() && !cat.fatal) {
    ++categorizer_stats_.demoted_nominal_fatal;
  }
  CategorizedRecord out;
  out.record = record;
  out.category = *category;
  out.fatal = cat.fatal;
  return out;
}

std::optional<PreprocessChain::CategorizedRecord> PreprocessChain::temporal(
    const CategorizedRecord& record) {
  if (threshold_ <= 0) return record;
  // location (32) | job (hashed into 16) | category (16)
  const std::uint64_t loc = record.record.location.packed();
  const std::uint64_t job = record.record.job_id * 0x9E37ULL;
  const std::uint64_t key = (loc << 32) ^ (job << 16) ^ record.category;
  const TimeSec t = record.record.event_time;
  auto [it, inserted] = temporal_last_.try_emplace(key, t);
  if (!inserted) {
    if (t - it->second <= threshold_) {
      it->second = t;  // gap-based: the tuple window slides forward
      return std::nullopt;
    }
    it->second = t;
  }
  return record;
}

std::optional<PreprocessChain::CategorizedRecord> PreprocessChain::spatial(
    const CategorizedRecord& record) {
  if (threshold_ <= 0) return record;
  const SpatialKey key{std::hash<std::string>{}(record.record.entry_data),
                       record.record.job_id};
  const TimeSec t = record.record.event_time;
  auto [it, inserted] = spatial_last_.try_emplace(key, t);
  if (!inserted) {
    if (t - it->second <= threshold_) {
      it->second = t;
      return std::nullopt;
    }
    it->second = t;
  }
  return record;
}

std::optional<bgl::Event> PreprocessChain::push(const bgl::RasRecord& record) {
  ++stats_.raw_records;
  auto categorized = categorize(record);
  if (!categorized) {
    ++stats_.unclassified;
    return std::nullopt;
  }
  auto after_temporal = temporal(*categorized);
  if (!after_temporal) return std::nullopt;
  ++stats_.after_temporal;
  auto survivor = spatial(*after_temporal);
  if (!survivor) return std::nullopt;

  ++stats_.unique_events;
  ++stats_.unique_per_facility[static_cast<std::size_t>(
      survivor->record.facility)];
  bgl::Event event;
  event.time = survivor->record.event_time;
  event.category = survivor->category;
  event.job_id = survivor->record.job_id;
  event.location = survivor->record.location;
  event.fatal = survivor->fatal;
  return event;
}

// ---- per-rule outcome attribution -------------------------------------
// evaluate_predictions as it was before attribution became one pass:
// the rules x fatals scan with a std::find over each fatal's covered list.

namespace {

struct FatalEvent {
  TimeSec time;
  CategoryId category;
  std::uint32_t midplane = 0;  // packed midplane-scope location
  /// Fatal events (by index) within (time - window, time): eligibility
  /// input for statistical rules.
  int preceding_in_window = 0;
  /// Gap to the previous fatal (or a huge value for the first one):
  /// eligibility input for distribution rules.
  DurationSec gap_before = 0;
};

std::vector<FatalEvent> collect_fatals(std::span<const bgl::Event> events,
                                       DurationSec window) {
  std::vector<FatalEvent> fatals;
  for (const auto& e : events) {
    if (!e.fatal) continue;
    FatalEvent f;
    f.time = e.time;
    f.category = e.category;
    f.midplane = e.location.enclosing_midplane().packed();
    fatals.push_back(f);
  }
  std::size_t lo = 0;
  for (std::size_t i = 0; i < fatals.size(); ++i) {
    while (lo < i && fatals[lo].time <= fatals[i].time - window) ++lo;
    fatals[i].preceding_in_window = static_cast<int>(i - lo);
    fatals[i].gap_before = i == 0 ? std::numeric_limits<DurationSec>::max() / 2
                                  : fatals[i].time - fatals[i - 1].time;
  }
  return fatals;
}

bool rule_eligible(const learners::Rule& rule, const FatalEvent& fatal) {
  switch (rule.source()) {
    case learners::RuleSource::kAssociation:
      return rule.as_association()->consequent == fatal.category;
    case learners::RuleSource::kStatistical:
      // The rule could only have fired if k fatals (the trigger event
      // included) preceded this one inside the window.
      return fatal.preceding_in_window >= rule.as_statistical()->k;
    case learners::RuleSource::kDistribution:
      return fatal.gap_before >= rule.as_distribution()->elapsed_trigger;
    case learners::RuleSource::kCorrelation:
      // Like association: the chain predicts one specific category.
      return rule.as_correlation()->consequent == fatal.category;
  }
  return false;
}

}  // namespace

predict::EvaluationResult evaluate_predictions(
    std::span<const bgl::Event> events,
    std::span<const predict::Warning> warnings, DurationSec window,
    const meta::KnowledgeRepository* repository) {
  predict::EvaluationResult result;
  const auto fatals = collect_fatals(events, window);
  result.total_fatals = fatals.size();
  result.total_warnings = warnings.size();
  result.fatal_coverage_mask.assign(fatals.size(), 0);

  // Which rules covered anything, per warning — warnings are
  // time-ordered, fatals are time-ordered: sliding two-pointer match.
  // Each warning predicts *one* failure: it is consumed by the first
  // fatal it matches and cannot claim later failures in its window
  // (otherwise a single long-horizon warning would blanket a whole
  // failure cascade and recall would be meaningless).
  std::vector<bool> warning_correct(warnings.size(), false);
  std::vector<std::vector<std::uint64_t>> fatal_covered_by(fatals.size());

  std::size_t w_lo = 0;
  for (std::size_t fi = 0; fi < fatals.size(); ++fi) {
    const auto& f = fatals[fi];
    // Warnings too old to cover f can never cover a later fatal either.
    while (w_lo < warnings.size() && warnings[w_lo].deadline < f.time) {
      ++w_lo;
    }
    for (std::size_t wi = w_lo; wi < warnings.size(); ++wi) {
      const auto& w = warnings[wi];
      if (w.issued_at >= f.time) break;  // must precede the failure
      if (w.deadline < f.time) continue;
      if (warning_correct[wi]) continue;  // already consumed
      if (w.category.has_value() && *w.category != f.category) continue;
      if (w.location.has_value() && w.location->packed() != f.midplane) {
        continue;
      }
      warning_correct[wi] = true;
      fatal_covered_by[fi].push_back(w.rule_id);
      result.fatal_coverage_mask[fi] |=
          static_cast<std::uint8_t>(1u << static_cast<unsigned>(w.source));
    }
  }

  // Overall + per-source counts.
  for (std::size_t wi = 0; wi < warnings.size(); ++wi) {
    if (!warning_correct[wi]) {
      ++result.overall.false_positives;
      ++result.per_source[static_cast<std::size_t>(warnings[wi].source)]
            .false_positives;
    }
  }
  for (std::size_t fi = 0; fi < fatals.size(); ++fi) {
    const std::uint8_t mask = result.fatal_coverage_mask[fi];
    if (mask != 0) {
      ++result.overall.true_positives;
    } else {
      ++result.overall.false_negatives;
    }
    for (unsigned s = 0; s < learners::kNumRuleSources; ++s) {
      if (mask & (1u << s)) {
        ++result.per_source[s].true_positives;
      } else {
        ++result.per_source[s].false_negatives;
      }
    }
  }

  // Per-rule attribution for the reviser.
  if (repository != nullptr) {
    for (std::size_t wi = 0; wi < warnings.size(); ++wi) {
      if (!warning_correct[wi]) {
        ++result.per_rule[warnings[wi].rule_id].false_positives;
      }
    }
    for (const auto& stored : repository->rules()) {
      auto& counts = result.per_rule[stored.id];
      for (std::size_t fi = 0; fi < fatals.size(); ++fi) {
        const bool covered =
            std::find(fatal_covered_by[fi].begin(), fatal_covered_by[fi].end(),
                      stored.id) != fatal_covered_by[fi].end();
        if (covered) {
          ++counts.true_positives;
        } else if (rule_eligible(stored.rule, fatals[fi])) {
          ++counts.false_negatives;
        }
      }
    }
  }
  return result;
}

}  // namespace dml::reference
