#include "learners/association_learner.hpp"

#include <algorithm>
#include <map>

#include "learners/transactions.hpp"

namespace dml::learners {

std::vector<Rule> AssociationLearner::learn(
    std::span<const bgl::Event> training, DurationSec window) const {
  std::vector<Rule> rules;
  const auto transactions = collapse_cascade_transactions(
      build_failure_transactions(training, window), window);
  if (transactions.empty()) return rules;
  const auto total = static_cast<double>(transactions.size());

  // Mine frequent antecedent itemsets over all event sets.
  std::vector<Itemset> itemsets;
  itemsets.reserve(transactions.size());
  for (const auto& tx : transactions) itemsets.push_back(tx.items);

  AprioriConfig apriori;
  apriori.min_support =
      std::max(config_.min_support,
               static_cast<double>(config_.min_support_count) / total);
  apriori.max_items = config_.max_antecedent;
  const auto frequent = mine_frequent_itemsets(itemsets, apriori);

  // Rule extraction reuses the miner's dense bitset layout: one subset
  // test per (frequent itemset, transaction) is a few word-wise ANDs.
  const auto dense = build_dense_category_map(itemsets);
  const auto bits = encode_transaction_bitsets(itemsets, dense);
  std::vector<std::uint64_t> mask(bits.words_per_row);

  // For each frequent X and fatal f: support(X -> f) = |tx containing X
  // with consequent f| / N, confidence = that count / |tx containing X|.
  for (const auto& fi : frequent) {
    if (fi.items.size() < config_.min_antecedent) continue;
    std::fill(mask.begin(), mask.end(), 0);
    for (CategoryId item : fi.items) {
      const CategoryId d = dense.dense_of(item);
      mask[d >> 6] |= std::uint64_t{1} << (d & 63);
    }
    std::map<CategoryId, std::uint32_t> per_consequent;
    for (std::size_t t = 0; t < transactions.size(); ++t) {
      if (bitset_contains(bits.row(t), mask.data(), bits.words_per_row)) {
        ++per_consequent[transactions[t].consequent];
      }
    }
    for (const auto& [consequent, count] : per_consequent) {
      const double support = static_cast<double>(count) / total;
      const double confidence =
          static_cast<double>(count) / static_cast<double>(fi.count);
      if (support < config_.min_support ||
          count < config_.min_support_count ||
          confidence < config_.min_confidence) {
        continue;
      }
      AssociationRule rule;
      rule.antecedent = fi.items;
      rule.consequent = consequent;
      rule.support = support;
      rule.confidence = confidence;
      rules.emplace_back(std::move(rule));
    }
  }

  // Drop rules subsumed by a shorter antecedent predicting the same
  // consequent with at least the same confidence: the short rule fires
  // whenever the long one would.
  std::vector<Rule> kept;
  for (const auto& candidate : rules) {
    const auto* cr = candidate.as_association();
    const bool subsumed = std::any_of(
        rules.begin(), rules.end(), [&](const Rule& other) {
          const auto* orule = other.as_association();
          return orule != cr && orule->consequent == cr->consequent &&
                 orule->antecedent.size() < cr->antecedent.size() &&
                 orule->confidence >= cr->confidence &&
                 contains_sorted(cr->antecedent, orule->antecedent);
        });
    if (!subsumed) kept.push_back(candidate);
  }
  return kept;
}

}  // namespace dml::learners
