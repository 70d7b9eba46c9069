#include "learners/correlation/chain_miner.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

namespace dml::learners::correlation {

namespace {

struct Miner {
  const EventGraph& graph;
  const ChainMinerConfig& config;
  CategoryId fatal = kInvalidCategory;
  /// Chain under construction, last stage first (the walk is backward).
  std::vector<CategoryId> reversed;
  std::vector<CorrelationChainRule> out;

  /// Top-k walkable predecessors of `head`, re-sorted ascending by id so
  /// sibling branches are explored in a deterministic order.
  std::vector<EventGraph::Predecessor> frontier(CategoryId head) const {
    std::vector<EventGraph::Predecessor> preds =
        graph.predecessors(head, config.min_edge_confidence);
    if (preds.size() > config.max_predecessors) {
      std::partial_sort(preds.begin(),
                        preds.begin() + config.max_predecessors, preds.end(),
                        [](const auto& a, const auto& b) {
                          if (a.confidence != b.confidence) {
                            return a.confidence > b.confidence;
                          }
                          return a.category < b.category;
                        });
      preds.resize(config.max_predecessors);
      std::sort(preds.begin(), preds.end(),
                [](const auto& a, const auto& b) {
                  return a.category < b.category;
                });
    }
    return preds;
  }

  void emit(double confidence, std::uint32_t min_count) {
    if (reversed.size() < config.min_chain_length) return;
    CorrelationChainRule rule;
    rule.chain.assign(reversed.rbegin(), reversed.rend());
    rule.consequent = fatal;
    rule.confidence = confidence;
    const std::uint32_t fatal_occ = graph.fatal_occurrences(fatal);
    rule.support =
        std::min(1.0, static_cast<double>(min_count) /
                          std::max<std::uint32_t>(1, fatal_occ));
    rule.stage_window = graph.config().window;
    out.push_back(std::move(rule));
  }

  void extend(CategoryId head, double confidence, std::uint32_t min_count) {
    bool extended = false;
    if (reversed.size() < config.max_chain_length) {
      for (const EventGraph::Predecessor& pred : frontier(head)) {
        const double product = confidence * pred.confidence;
        if (product < config.min_chain_confidence) continue;
        if (std::find(reversed.begin(), reversed.end(), pred.category) !=
            reversed.end()) {
          continue;  // no cycles
        }
        extended = true;
        reversed.push_back(pred.category);
        extend(pred.category, product,
               std::min(min_count, pred.count));
        reversed.pop_back();
      }
    }
    if (!extended) emit(confidence, min_count);
  }
};

}  // namespace

std::vector<Rule> mine_chains(const EventGraph& graph,
                              const ChainMinerConfig& config) {
  std::vector<Rule> rules;
  for (CategoryId fatal : graph.fatal_categories()) {
    Miner miner{graph, config, fatal, {}, {}};
    for (const EventGraph::Predecessor& pred :
         miner.frontier(fatal)) {
      if (pred.confidence < config.min_chain_confidence) continue;
      miner.reversed.push_back(pred.category);
      miner.extend(pred.category, pred.confidence, pred.count);
      miner.reversed.pop_back();
    }
    std::sort(miner.out.begin(), miner.out.end(),
              [](const CorrelationChainRule& a,
                 const CorrelationChainRule& b) {
                if (a.confidence != b.confidence) {
                  return a.confidence > b.confidence;
                }
                return a.chain < b.chain;
              });
    if (miner.out.size() > config.max_chains_per_fatal) {
      miner.out.resize(config.max_chains_per_fatal);
    }
    for (CorrelationChainRule& chain : miner.out) {
      rules.emplace_back(std::move(chain));
    }
  }
  return rules;
}

}  // namespace dml::learners::correlation
