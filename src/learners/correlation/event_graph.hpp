// Event-correlation graph (LogMaster-style, arXiv:1003.0951): a directed
// graph over event categories whose edge a -> b accumulates one
// time-decayed contribution every time b occurs within the adjacency
// window after the most recent a in the same scope.  The decay kernel
// exp(-gap / tau) makes tight causal couplings weigh more than loose
// ones; window-level recency (forgetting old behaviour entirely) is the
// retraining regime's job, not the graph's.
//
// Storage is sized by the edges an event touches, not by the taxonomy:
// each scope keeps a short list of the categories seen within the
// window, and each target keeps its in-edges in a row sorted by source,
// so predecessors() walks one row.  See DESIGN.md §14.1.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgl/record.hpp"
#include "common/types.hpp"

namespace dml::learners::correlation {

struct EventGraphConfig {
  /// Adjacency window: b is adjacent to a when it occurs at most this
  /// long after a's most recent occurrence.  Deliberately wider than the
  /// prediction window Wp — chains whose stage gaps exceed Wp are the
  /// ones the flat windowed learners cannot represent.
  DurationSec window = 900;
  /// Decay time constant of the edge-weight kernel exp(-gap / tau).
  DurationSec decay_tau = 300;
  /// Accumulate adjacency within a midplane only: co-occurrence across
  /// unrelated midplanes is coincidence, not causality.  (Cross-midplane
  /// cascade hops pay a weight penalty; the miner's thresholds are low
  /// enough that moderately hopping chains still surface.)
  bool scope_by_midplane = true;
};

class EventGraph {
 public:
  explicit EventGraph(EventGraphConfig config = {}) : config_(config) {}

  /// Folds a time-ordered event span into the graph.  Times must be
  /// non-decreasing within the span (DCHECKed): the recency lists drop
  /// an entry once it falls behind the window horizon, which is exact
  /// only because that horizon never moves back.  May be called
  /// repeatedly; spans are treated as independent (no adjacency across
  /// the seam) and need not be ordered relative to each other.
  void accumulate(std::span<const bgl::Event> events);

  /// An incoming edge of some target category.
  struct Predecessor {
    CategoryId category = kInvalidCategory;
    /// weight(a -> b) / occurrences(a), clamped to [0, 1]: the decayed
    /// fraction of a's occurrences that b followed.
    double confidence = 0.0;
    /// Raw (undecayed) co-occurrence count of the edge.
    std::uint32_t count = 0;
  };

  /// Incoming edges of `target` with confidence >= min_confidence, in
  /// ascending source-category order (deterministic mining).
  std::vector<Predecessor> predecessors(CategoryId target,
                                        double min_confidence) const;

  /// Fatal categories observed at least once, ascending.
  const std::vector<CategoryId>& fatal_categories() const {
    return fatal_categories_;
  }

  std::uint32_t occurrences(CategoryId c) const {
    return c < occurrences_.size() ? occurrences_[c] : 0;
  }
  std::uint32_t fatal_occurrences(CategoryId c) const {
    return c < fatal_occurrences_.size() ? fatal_occurrences_[c] : 0;
  }

  const EventGraphConfig& config() const { return config_; }

 private:
  /// An edge source -> (the row's target).
  struct InEdge {
    CategoryId source = kInvalidCategory;
    std::uint32_t count = 0;
    double weight = 0.0;
  };
  /// A non-fatal category's most recent occurrence in one scope.
  struct Recent {
    CategoryId category = kInvalidCategory;
    TimeSec time = 0;
  };

  EventGraphConfig config_;
  /// in_[target]: the target's incoming edges, ascending by source.
  std::vector<std::vector<InEdge>> in_;
  /// Per scope, every non-fatal category seen within `window` of the
  /// scope's latest event, once each, in no particular order.
  std::unordered_map<std::uint32_t, std::vector<Recent>> recent_;
  std::vector<std::uint32_t> occurrences_;        // non-fatal, as sources
  std::vector<std::uint32_t> fatal_occurrences_;  // chain consequents
  std::vector<CategoryId> fatal_categories_;
};

}  // namespace dml::learners::correlation
