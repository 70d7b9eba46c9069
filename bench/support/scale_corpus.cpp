#include "support/scale_corpus.hpp"

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "online/driver.hpp"

namespace dml::bench {
namespace {

constexpr std::uint64_t kCorpusSeed = 0x5ca1ab1e2026ULL;

/// Draws sorted unique itemsets whose item distribution follows the
/// category frequencies of the source log (heavier categories appear in
/// more transactions, as in the real failure-transaction sets).
std::vector<learners::Itemset> draw_transactions(
    const logio::EventStore& store, std::size_t count) {
  // Cumulative category weights over the whole log.
  CategoryId max_category = 0;
  for (const auto& event : store.all()) {
    max_category = std::max(max_category, event.category);
  }
  std::vector<std::uint64_t> cumulative(max_category + 1, 0);
  for (const auto& event : store.all()) ++cumulative[event.category];
  std::uint64_t total = 0;
  for (auto& weight : cumulative) {
    total += weight;
    weight = total;
  }

  Rng rng(kCorpusSeed);
  std::vector<learners::Itemset> transactions;
  transactions.reserve(count);
  learners::Itemset items;
  while (transactions.size() < count) {
    // Sizes 2..6, biased small like the paper's 2-4 event signatures.
    const std::size_t size = 2 + rng.next_u64() % 5;
    items.clear();
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t pick = rng.next_u64() % total;
      const auto it =
          std::upper_bound(cumulative.begin(), cumulative.end(), pick);
      items.push_back(
          static_cast<CategoryId>(it - cumulative.begin()));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    if (items.size() < 2) continue;  // degenerate draw; redraw
    transactions.push_back(items);
  }
  return transactions;
}

}  // namespace

std::vector<bgl::Event> tile_serving(const logio::EventStore& store,
                                     TimeSec serve_after,
                                     std::size_t target_events,
                                     std::size_t& slice_events,
                                     std::size_t& tiles) {
  const auto slice =
      store.between(serve_after, serve_after + 8 * kSecondsPerWeek);
  slice_events = slice.size();
  const DurationSec span = 8 * kSecondsPerWeek;
  tiles = (target_events + slice.size() - 1) / slice.size();
  std::vector<bgl::Event> serving;
  serving.reserve(tiles * slice.size());
  for (std::size_t k = 0; k < tiles; ++k) {
    const DurationSec offset = static_cast<DurationSec>(k) * span;
    for (const auto& event : slice) {
      serving.push_back(event);
      serving.back().time += offset;
    }
  }
  return serving;
}

ScaleCorpus build_scale_corpus(const logio::EventStore& store,
                               TimeSec serve_after, bool quick) {
  ScaleCorpus corpus;
  const std::size_t transactions = quick ? 100'000 : 1'000'000;
  const std::size_t events = quick ? 1'000'000 : 10'000'000;
  corpus.transactions = draw_transactions(store, transactions);
  corpus.serving =
      tile_serving(store, serve_after, events, corpus.serving_slice_events,
                   corpus.serving_tiles);
  return corpus;
}

}  // namespace dml::bench
