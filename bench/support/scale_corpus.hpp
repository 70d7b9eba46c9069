// Million-transaction / ten-million-event bench corpus (ISSUE 8): the
// paper-scale slices time sub-millisecond, so `bench_hot_paths --scale`
// mines and serves inputs at the volume LogMaster-class systems report.
// Everything is derived deterministically from the canonical generated
// ANL log — transaction items are drawn from the log's own category
// frequency distribution, and the serving stream tiles a real 8-week
// serving slice forward in time — so runs are byte-reproducible without
// shipping a multi-hundred-megabyte corpus.
#pragma once

#include <cstddef>
#include <vector>

#include "bgl/record.hpp"
#include "learners/apriori.hpp"
#include "logio/event_store.hpp"

namespace dml::bench {

struct ScaleCorpus {
  /// Mining input: >= 1M sorted unique itemsets (quick: 1/10 of that),
  /// sized and weighted like the source log's failure transactions.
  std::vector<learners::Itemset> transactions;
  /// Serving input: >= 10M time-ordered events (quick: 1/10), tiling
  /// `serving_slice_events` real events per tile.
  std::vector<bgl::Event> serving;
  std::size_t serving_slice_events = 0;
  std::size_t serving_tiles = 0;
};

/// Tiles the 8 weeks of `store` following `serve_after` forward in time
/// until at least `target_events` events: tile k replays the slice
/// shifted by k * 8 weeks, so the stream stays time-ordered and every
/// tile exercises the same window and dedup churn.
std::vector<bgl::Event> tile_serving(const logio::EventStore& store,
                                     TimeSec serve_after,
                                     std::size_t target_events,
                                     std::size_t& slice_events,
                                     std::size_t& tiles);

/// Builds the corpus from `store` (the canonical ANL store): category
/// weights from the whole log, serving tiles from the 8 weeks following
/// `serve_after` (the classic stages' training span).
ScaleCorpus build_scale_corpus(const logio::EventStore& store,
                               TimeSec serve_after, bool quick);

}  // namespace dml::bench
