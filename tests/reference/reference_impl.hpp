// Pre-optimization reference implementations of the hot paths rewritten
// in DESIGN.md §9: the horizontal std::includes Apriori miner, the
// rescan-per-stride negative-window sampler, the hash-map Predictor and
// the copying preprocess chain (per-facility classifier scan, unbounded
// unordered_map filters) and the rules x fatals outcome attribution;
// plus the rescanning correlation-graph builder (DESIGN.md §14.1).
// They are kept verbatim (modulo naming) as the equivalence oracle for
// the golden tests and the "before" side of bench_hot_paths — the
// optimized implementations must reproduce their itemset multisets,
// warning streams and graph edges bit for bit.  The serving loop that
// ticks at every grid instant is kept the same way.
//
// One deliberate deviation: the original per-scope clock-tick sweep
// iterated an unordered_map (unspecified within-tick order).  Both the
// optimized Predictor and this reference sweep scopes in ascending
// midplane order, so tick output is comparable element-wise; the
// warning multiset is unchanged either way.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgl/record.hpp"
#include "common/types.hpp"
#include "learners/apriori.hpp"
#include "learners/correlation/event_graph.hpp"
#include "meta/knowledge_repository.hpp"
#include "online/serving.hpp"
#include "predict/outcome_matcher.hpp"
#include "predict/predictor.hpp"
#include "preprocess/streaming_pipeline.hpp"

namespace dml::reference {

/// Classic horizontal Apriori: std::map L1 counting, join-and-prune from
/// level 2 up, std::includes subset tests per (transaction, candidate).
std::vector<learners::FrequentItemset> mine_frequent_itemsets(
    std::span<const learners::Itemset> transactions,
    const learners::AprioriConfig& config);

/// Per-stride rescan sampler: every window re-collects, sorts and
/// uniques its events.
std::vector<std::vector<CategoryId>> sample_negative_windows(
    std::span<const bgl::Event> events, DurationSec window,
    DurationSec stride);

/// Naive O(n * window-events) correlation-graph builder: for every
/// event, rescan the span backward to the window horizon and take the
/// most recent occurrence of each category as an edge source.  Each
/// (source, target) pair contributes once per target event, in event
/// order, so learners::correlation::EventGraph must reproduce its edges
/// exactly: same sources, counts and weights.
class NaiveEventGraph {
 public:
  using Config = learners::correlation::EventGraphConfig;
  using Predecessor = learners::correlation::EventGraph::Predecessor;

  explicit NaiveEventGraph(Config config) : config_(config) {}

  /// Same contract as EventGraph::accumulate: spans are independent.
  void accumulate(std::span<const bgl::Event> events);
  /// Every incoming edge of `target` (EventGraph::predecessors with
  /// min_confidence 0), ascending by source.
  std::vector<Predecessor> predecessors(CategoryId target) const;

 private:
  struct Edge {
    double weight = 0.0;
    std::uint32_t count = 0;
  };

  Config config_;
  /// Edge key: (source << 16) | target.
  std::unordered_map<std::uint32_t, Edge> edges_;
  /// Non-fatal occurrences per category.
  std::unordered_map<CategoryId, std::uint32_t> occurrences_;
};

/// CRC-32 (reflected 0xEDB88320) one table lookup per byte: what the
/// slicing-by-8 common::crc32 must return, for any incremental split.
std::uint32_t crc32_bytewise(const void* data, std::size_t size,
                             std::uint32_t crc = 0);

/// Scans every category of the facility and keeps the longest matching
/// pattern, the first (lowest id) among equal lengths: what
/// bgl::Taxonomy::classify must return.
std::optional<CategoryId> classify(const bgl::Taxonomy& taxonomy,
                                   bgl::Facility facility, Severity severity,
                                   std::string_view entry_data);

/// The Figure 1 chain as it ran before classification was bucketed and
/// the filters were bounded: each stage copies the record it passes on,
/// and both filters remember every key forever.  Same contract and
/// statistics as preprocess::StreamingPipeline (minus its failpoint),
/// which must emit the same events and counts.
class PreprocessChain {
 public:
  explicit PreprocessChain(DurationSec threshold,
                           const bgl::Taxonomy& taxonomy = bgl::taxonomy());

  std::optional<bgl::Event> push(const bgl::RasRecord& record);

  const preprocess::PipelineStats& stats() const { return stats_; }
  const preprocess::Categorizer::Stats& categorizer_stats() const {
    return categorizer_stats_;
  }

 private:
  struct CategorizedRecord {
    bgl::RasRecord record;
    CategoryId category = kInvalidCategory;
    bool fatal = false;
  };
  struct SpatialKey {
    std::uint64_t entry_hash;
    JobId job;
    friend bool operator==(const SpatialKey&, const SpatialKey&) = default;
  };
  struct SpatialKeyHash {
    std::size_t operator()(const SpatialKey& k) const;
  };

  std::optional<CategorizedRecord> categorize(const bgl::RasRecord& record);
  std::optional<CategorizedRecord> temporal(const CategorizedRecord& record);
  std::optional<CategorizedRecord> spatial(const CategorizedRecord& record);

  const bgl::Taxonomy* taxonomy_;
  DurationSec threshold_;
  std::unordered_map<std::uint64_t, TimeSec> temporal_last_;
  std::unordered_map<SpatialKey, TimeSec, SpatialKeyHash> spatial_last_;
  preprocess::PipelineStats stats_;
  preprocess::Categorizer::Stats categorizer_stats_;
};

/// predict::evaluate_predictions with per-rule attribution as a rules x
/// fatals scan: each repository rule is looked up in every fatal's list
/// of consumed warnings' rule ids.  The one-pass attribution must equal
/// it field for field, per rule included.
predict::EvaluationResult evaluate_predictions(
    std::span<const bgl::Event> events,
    std::span<const predict::Warning> warnings, DurationSec window,
    const meta::KnowledgeRepository* repository);

/// online::ServingCore as it ran before advance() jumped over the PD
/// quiet horizon: a Predictor::tick_into at every grid instant.  Same
/// options, adoption, warm-up and anchoring contract (minus the
/// failpoint); ServingCore must emit the same warnings in the same
/// order.
class EveryTickServing {
 public:
  explicit EveryTickServing(online::ServingCore::Options options);

  void adopt(const online::SnapshotBuild& build,
             std::vector<predict::Warning>& out);
  void advance(TimeSec t, std::vector<predict::Warning>& out);
  void observe(const bgl::Event& event, std::vector<predict::Warning>& out);

 private:
  online::ServingCore::Options options_;
  /// Keeps the rules in force alive for predictor_.
  meta::RepositorySnapshot snapshot_;
  std::unique_ptr<predict::Predictor> predictor_;
  std::optional<TimeSec> next_tick_;
  std::deque<bgl::Event> warm_buffer_;
};

/// The hash-map predictor (paper Algorithm 2), emitting the same
/// predict::Warning stream as predict::Predictor.
class ReferencePredictor {
 public:
  using Warning = predict::Warning;
  using Options = predict::PredictorOptions;

  ReferencePredictor(const meta::KnowledgeRepository& repository,
                     DurationSec window, Options options = {});

  std::vector<Warning> observe(const bgl::Event& event);
  std::vector<Warning> tick(TimeSec now);
  std::vector<Warning> run(std::span<const bgl::Event> events,
                           DurationSec tick_interval = 0);

 private:
  bool scoped() const {
    return options_.location_scoped || options_.per_scope_state;
  }
  void expire(TimeSec now);
  bool try_issue(std::vector<Warning>& out, TimeSec now,
                 const meta::StoredRule& rule,
                 std::optional<CategoryId> category, TimeSec deadline,
                 std::optional<bgl::Location> location = std::nullopt,
                 std::uint32_t scope = 0);
  void erase_active(std::uint64_t rule_id, std::uint32_t scope);
  bool chain_completed(const learners::CorrelationChainRule& rule,
                       TimeSec now, std::uint32_t midplane) const;
  void check_distribution(std::vector<Warning>& out, TimeSec now);
  void check_distribution_scope(std::vector<Warning>& out, TimeSec now,
                                std::uint32_t midplane, TimeSec last_fatal);

  const meta::KnowledgeRepository* repository_;
  DurationSec window_;
  Options options_;

  std::unordered_map<CategoryId, std::vector<const meta::StoredRule*>> e_list_;
  std::unordered_map<CategoryId, std::vector<const meta::StoredRule*>>
      by_consequent_;
  std::vector<const meta::StoredRule*> statistical_rules_;
  std::vector<const meta::StoredRule*> distribution_rules_;

  struct RecentEvent {
    TimeSec time;
    CategoryId category;
    std::uint32_t midplane;
  };
  std::deque<RecentEvent> recent_;
  std::unordered_map<CategoryId, std::uint32_t> recent_counts_;
  std::unordered_map<std::uint64_t, std::uint32_t> scoped_counts_;
  std::deque<std::pair<TimeSec, std::uint32_t>> recent_fatals_;
  // Correlation-chain state: arrivals of any chain-stage category,
  // retained for the widest chain's span, matched by exhaustive search.
  std::unordered_map<CategoryId, std::vector<const meta::StoredRule*>>
      chain_by_last_;
  std::unordered_map<CategoryId, bool> chain_member_;
  std::deque<RecentEvent> chain_recent_;
  DurationSec chain_lookback_ = 0;
  std::optional<TimeSec> last_fatal_;
  std::unordered_map<std::uint32_t, TimeSec> last_fatal_by_scope_;
  std::unordered_map<std::uint64_t, TimeSec> active_;
};

}  // namespace dml::reference
