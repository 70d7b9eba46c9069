#include "learners/correlation/event_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace dml::learners::correlation {

void EventGraph::accumulate(std::span<const bgl::Event> events) {
  // Fresh span: adjacency must not leak across the seam between calls.
  for (auto& [scope, recent] : recent_) recent.clear();

  const double tau =
      static_cast<double>(std::max<DurationSec>(1, config_.decay_tau));
  TimeSec previous = std::numeric_limits<TimeSec>::min();
  for (const bgl::Event& event : events) {
    DML_DCHECK_MSG(event.time >= previous,
                   "EventGraph::accumulate needs a time-ordered span");
    previous = event.time;
    const CategoryId cat = event.category;
    if (cat == kInvalidCategory) continue;
    const std::size_t need = static_cast<std::size_t>(cat) + 1;
    if (occurrences_.size() < need) {
      occurrences_.resize(need, 0);
      fatal_occurrences_.resize(need, 0);
      in_.resize(need);
    }

    const std::uint32_t scope =
        config_.scope_by_midplane
            ? event.location.enclosing_midplane().packed()
            : 0;
    std::vector<Recent>& recent = recent_[scope];
    std::vector<InEdge>& row = in_[cat];

    // One pass over the scope's recency list: drop entries behind the
    // horizon (it never moves back, so they could never count again),
    // add one observation A -> cat from every other category A, and
    // find cat's own entry.  O(categories recently seen in the scope)
    // per event, plus a binary search in cat's in-edge row per edge.
    const TimeSec horizon = event.time - config_.window;
    Recent* own = nullptr;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < recent.size(); ++i) {
      if (recent[i].time < horizon) continue;
      Recent& entry = recent[kept++] = recent[i];
      if (entry.category == cat) {
        own = &entry;
        continue;
      }
      auto edge = std::lower_bound(
          row.begin(), row.end(), entry.category,
          [](const InEdge& e, CategoryId source) { return e.source < source; });
      if (edge == row.end() || edge->source != entry.category) {
        edge = row.insert(edge, InEdge{entry.category});
      }
      edge->weight +=
          std::exp(-static_cast<double>(event.time - entry.time) / tau);
      edge->count += 1;
    }
    recent.resize(kept);

    if (event.fatal) {
      // Fatal events terminate chains; they never act as sources, so
      // they are not entered into the recency list.
      if (fatal_occurrences_[cat]++ == 0) {
        fatal_categories_.insert(
            std::lower_bound(fatal_categories_.begin(),
                             fatal_categories_.end(), cat),
            cat);
      }
    } else {
      ++occurrences_[cat];
      if (own != nullptr) {
        own->time = event.time;
      } else {
        recent.push_back({cat, event.time});
      }
    }
  }
}

std::vector<EventGraph::Predecessor> EventGraph::predecessors(
    CategoryId target, double min_confidence) const {
  std::vector<Predecessor> out;
  if (target >= in_.size()) return out;
  // A source is a non-fatal category seen at least once: occurrences > 0.
  for (const InEdge& edge : in_[target]) {
    const double confidence =
        std::min(1.0, edge.weight / occurrences(edge.source));
    if (confidence < min_confidence) continue;
    out.push_back({edge.source, confidence, edge.count});
  }
  return out;
}

}  // namespace dml::learners::correlation
