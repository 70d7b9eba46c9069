// Hot-path benchmarks for the layout + SIMD optimizations of DESIGN.md
// §9/§13:
//   - Apriori mining: bitset-vertical miner (SIMD tidset kernels) vs the
//     reference horizontal std::includes miner at paper scale, and
//     forced-scalar vs dispatched-SIMD at million-transaction scale.
//   - Transaction building: sliding-window negative sampler vs the
//     per-stride rescan reference.
//   - Serving: the allocation-lean Predictor (observe/observe_batch)
//     vs the hash-map reference predictor, at paper scale and on a
//     ten-million-event tiled stream (--scale).
//   - Raw kernels (--scale): and_popcount / subset_count per compiled
//     SIMD variant against the scalar reference, on miner-shaped inputs.
//   - Correlation graph build (recency lists and in-edge rows vs the
//     naive backward rescan) and chain-rule serving on a chain-heavy
//     trace (§14).
//   - Raw-record preprocessing: StreamingPipeline (classification memo,
//     bucketed classifier, copy-free bounded filters) vs the copying
//     reference chain, on slices of the ANL and SDSC raw logs at the
//     300 s threshold, and on the ANL slice with every entry made
//     unique: the memo's miss cost, which no repeated log shows.
//   - CRC-32: slicing-by-8 vs the bytewise table loop, and
//     common::crc32 (the dispatched folding kernel from 64 B) vs
//     slicing-by-8, on buffers the size of a wire event (24 B), a mean
//     raw record frame (83 B) and a 512-record INGEST_RECORDS payload
//     (42 KiB).
//   - Revise: the reviser's per-rule outcome attribution in one pass vs
//     the reference rules x fatals scan, on a whole-history training
//     window with every expert (correlation included) and its replay.
//   - Serving ticks: a sharded engine's per-shard loop (ServingCore,
//     per-scope predictor, absolute 300 s ticks) on the ANL serving
//     slice tiled to half a million events, ticking at every grid
//     instant vs jumping the ticks the PD quiet horizon proves silent.
//
// Both sides of every comparison are checked for identical output before
// timing — a speedup on diverging results would be meaningless.  Every
// timing is warmup + repeat-and-take-min (bench_timing.hpp); repeat
// counts land in the JSON next to the numbers.
//
// Emits machine-readable JSON (default BENCH_hotpaths.json; --out FILE)
// alongside the printed table.  --quick shrinks the slices and rep
// counts for CI smoke runs; numbers from --quick are not comparable.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "learners/apriori.hpp"
#include "learners/correlation/correlation_learner.hpp"
#include "learners/transactions.hpp"
#include "logio/record_sink.hpp"
#include "meta/meta_learner.hpp"
#include "online/report.hpp"
#include "online/serving.hpp"
#include "predict/outcome_matcher.hpp"
#include "predict/predictor.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "reference_impl.hpp"
#include "support/bench_logs.hpp"
#include "support/bench_timing.hpp"
#include "support/scale_corpus.hpp"

namespace {

using namespace dml;

struct StageResult {
  std::string stage;
  std::string machine;
  double baseline_seconds = 0.0;
  double optimized_seconds = 0.0;
  int baseline_repeats = 0;
  int optimized_repeats = 0;
  /// Optimized-side throughput (serving and kernel stages; 0 = n/a).
  double events_per_second = 0.0;
  std::string detail;

  double speedup() const {
    return optimized_seconds > 0 ? baseline_seconds / optimized_seconds : 0;
  }

  void set_timings(const bench::Timing& baseline,
                   const bench::Timing& optimized) {
    baseline_seconds = baseline.seconds;
    baseline_repeats = baseline.repeats;
    optimized_seconds = optimized.seconds;
    optimized_repeats = optimized.repeats;
  }
};

bool same_itemsets(const std::vector<learners::FrequentItemset>& a,
                   const std::vector<learners::FrequentItemset>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].items != b[i].items || a[i].count != b[i].count) return false;
  }
  return true;
}

bool same_warnings(const std::vector<predict::Warning>& a,
                   const std::vector<predict::Warning>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].issued_at != b[i].issued_at || a[i].deadline != b[i].deadline ||
        a[i].category != b[i].category || a[i].location != b[i].location ||
        a[i].rule_id != b[i].rule_id || a[i].source != b[i].source) {
      return false;
    }
  }
  return true;
}

bool same_evaluation(const predict::EvaluationResult& a,
                     const predict::EvaluationResult& b) {
  return a.overall == b.overall && a.per_source == b.per_source &&
         a.per_rule == b.per_rule &&
         a.fatal_coverage_mask == b.fatal_coverage_mask &&
         a.total_fatals == b.total_fatals &&
         a.total_warnings == b.total_warnings;
}

struct Workload {
  std::string machine;
  const logio::EventStore* store;
};

/// One machine's paper-scale stages; returns false if any equivalence
/// check fails (the bench then exits non-zero).
bool run_machine(const Workload& workload, bool quick, double target,
                 int max_reps, std::vector<StageResult>& results) {
  const auto& store = *workload.store;
  const DurationSec window = 300;  // paper-default Wp
  // Paper-scale mining input: an 8-week training window (the densest
  // retraining cadence of Figure 10 uses 8-week slices).
  const int train_weeks = quick ? 4 : 8;
  const auto training =
      store.between(store.first_time(),
                    store.first_time() + train_weeks * kSecondsPerWeek);

  // ---- Stage 1: transaction building ----------------------------------
  const auto transactions = learners::collapse_cascade_transactions(
      learners::build_failure_transactions(training, window), window);
  std::vector<learners::Itemset> itemsets;
  for (const auto& tx : transactions) itemsets.push_back(tx.items);

  const DurationSec stride = window / 2;
  const auto sampled = learners::sample_negative_windows(training, window,
                                                         stride);
  if (sampled != reference::sample_negative_windows(training, window,
                                                    stride)) {
    std::fprintf(stderr, "FAIL: negative-window sampler diverges (%s)\n",
                 workload.machine.c_str());
    return false;
  }
  StageResult sampler;
  sampler.stage = "negative_windows";
  sampler.machine = workload.machine;
  sampler.detail = std::to_string(sampled.size()) + " windows over " +
                   std::to_string(train_weeks) + " weeks";
  sampler.set_timings(
      bench::min_of_reps(
          [&] {
            auto w =
                reference::sample_negative_windows(training, window, stride);
            if (w.size() != sampled.size()) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            auto w = learners::sample_negative_windows(training, window,
                                                       stride);
            if (w.size() != sampled.size()) std::abort();
          },
          target, max_reps));
  results.push_back(sampler);

  // ---- Stage 2: Apriori mining ----------------------------------------
  learners::AprioriConfig apriori;  // default support / itemset depth
  const auto mined = learners::mine_frequent_itemsets(itemsets, apriori);
  if (!same_itemsets(mined,
                     reference::mine_frequent_itemsets(itemsets, apriori))) {
    std::fprintf(stderr, "FAIL: miners diverge (%s)\n",
                 workload.machine.c_str());
    return false;
  }
  StageResult mining;
  mining.stage = "apriori_mining";
  mining.machine = workload.machine;
  mining.detail = std::to_string(itemsets.size()) + " transactions, " +
                  std::to_string(mined.size()) + " frequent itemsets";
  mining.set_timings(
      bench::min_of_reps(
          [&] {
            auto f = reference::mine_frequent_itemsets(itemsets, apriori);
            if (f.size() != mined.size()) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            auto f = learners::mine_frequent_itemsets(itemsets, apriori);
            if (f.size() != mined.size()) std::abort();
          },
          target, max_reps));
  results.push_back(mining);

  // ---- Stage 3: single-shard serving ----------------------------------
  const meta::MetaLearner learner{meta::MetaLearnerConfig{}};
  const auto repository = learner.learn(training, window);
  const int serve_weeks = quick ? 2 : 8;
  const auto serving = store.between(
      store.first_time() + train_weeks * kSecondsPerWeek,
      store.first_time() +
          (train_weeks + serve_weeks) * kSecondsPerWeek);

  for (const bool per_scope : {false, true}) {
    predict::PredictorOptions options;
    options.per_scope_state = per_scope;

    std::vector<predict::Warning> optimized_stream;
    {
      predict::Predictor predictor(repository, window, options);
      predictor.observe_batch(serving, optimized_stream);
    }
    std::vector<predict::Warning> reference_stream;
    {
      reference::ReferencePredictor predictor(repository, window, options);
      for (const auto& event : serving) {
        const auto warnings = predictor.observe(event);
        reference_stream.insert(reference_stream.end(), warnings.begin(),
                                warnings.end());
      }
    }
    if (!same_warnings(optimized_stream, reference_stream)) {
      std::fprintf(stderr, "FAIL: serving streams diverge (%s, %s)\n",
                   workload.machine.c_str(),
                   per_scope ? "per-scope" : "plain");
      return false;
    }

    StageResult stage;
    stage.stage = per_scope ? "serving_per_scope" : "serving_plain";
    stage.machine = workload.machine;
    stage.detail = std::to_string(serving.size()) + " events, " +
                   std::to_string(optimized_stream.size()) + " warnings";
    stage.set_timings(
        bench::min_of_reps(
            [&] {
              reference::ReferencePredictor predictor(repository, window,
                                                      options);
              std::size_t total = 0;
              for (const auto& event : serving) {
                total += predictor.observe(event).size();
              }
              if (total != reference_stream.size()) std::abort();
            },
            target, max_reps),
        bench::min_of_reps(
            [&] {
              predict::Predictor predictor(repository, window, options);
              std::vector<predict::Warning> out;
              predictor.observe_batch(serving, out);
              if (out.size() != optimized_stream.size()) std::abort();
            },
            target, max_reps));
    stage.events_per_second = static_cast<double>(serving.size()) /
                              std::max(stage.optimized_seconds, 1e-12);
    results.push_back(stage);
  }

  // ---- Stage 4: the reviser's outcome attribution ----------------------
  // A whole-history build as the daemon retrains it: every expert, the
  // replay with PD ticks, then per-rule counts for Algorithm 1.
  const int history_weeks = quick ? 12 : 52;
  const auto history =
      store.between(store.first_time(),
                    store.first_time() + history_weeks * kSecondsPerWeek);
  meta::MetaLearnerConfig every_expert;
  every_expert.enable_correlation = true;
  const auto revised = meta::MetaLearner{every_expert}.learn(history, window);
  const auto replay =
      predict::Predictor(revised, window).run(history, window);
  const auto attributed =
      predict::evaluate_predictions(history, replay, window, &revised);
  if (!same_evaluation(attributed,
                       reference::evaluate_predictions(history, replay, window,
                                                       &revised))) {
    std::fprintf(stderr, "FAIL: outcome attribution diverges (%s)\n",
                 workload.machine.c_str());
    return false;
  }
  StageResult revise;
  revise.stage = "revise";
  revise.machine = workload.machine;
  revise.detail = std::to_string(history.size()) + " events over " +
                  std::to_string(history_weeks) + " weeks, " +
                  std::to_string(attributed.total_fatals) + " fatals, " +
                  std::to_string(revised.size()) + " rules, " +
                  std::to_string(replay.size()) + " warnings";
  revise.set_timings(
      bench::min_of_reps(
          [&] {
            const auto e = reference::evaluate_predictions(history, replay,
                                                           window, &revised);
            if (e.per_rule.size() != attributed.per_rule.size()) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            const auto e = predict::evaluate_predictions(history, replay,
                                                         window, &revised);
            if (e.per_rule.size() != attributed.per_rule.size()) std::abort();
          },
          target, max_reps));
  revise.events_per_second = static_cast<double>(history.size()) /
                             std::max(revise.optimized_seconds, 1e-12);
  results.push_back(revise);
  return true;
}

// ---- serving ticks -----------------------------------------------------

/// ServingCore as one ShardedEngine shard runs it, over the tiled ANL
/// serving slice: the reference loop that ticks at every grid instant
/// vs the core that jumps the predictor's PD quiet horizon.  Returns
/// false if the two warning streams differ.
bool run_serving_ticks_stage(bool quick, double target, int max_reps,
                             std::vector<StageResult>& results) {
  const auto& store = bench::anl_store();
  const DurationSec window = 300;
  const TimeSec serve_after = store.first_time() + 8 * kSecondsPerWeek;
  online::SnapshotBuild build;
  build.repository = meta::freeze(meta::MetaLearner{meta::MetaLearnerConfig{}}
                                      .learn(store.between(store.first_time(),
                                                           serve_after),
                                             window));
  build.window = window;
  std::size_t slice_events = 0;
  std::size_t tiles = 0;
  const auto serving =
      bench::tile_serving(store, serve_after, quick ? 100'000 : 500'000,
                          slice_events, tiles);
  build.scheduled_at = build.activate_at = serving.front().time;

  online::ServingCore::Options options;
  options.clock_tick = 300;
  options.tick_anchor = online::ServingCore::TickAnchor::kAbsolute;
  options.warm_retention = window;
  options.predictor.per_scope_state = true;
  const auto serve = [&](auto& core, std::vector<predict::Warning>& out) {
    core.adopt(build, out);
    for (const auto& event : serving) core.observe(event, out);
    core.advance(serving.back().time + 1, out);
  };

  std::vector<predict::Warning> every_tick;
  std::vector<predict::Warning> skipping;
  {
    reference::EveryTickServing core(options);
    serve(core, every_tick);
  }
  {
    online::ServingCore core(options);
    serve(core, skipping);
  }
  if (!same_warnings(skipping, every_tick)) {
    std::fprintf(stderr, "FAIL: serving ticks diverge (%zu vs %zu warnings)\n",
                 skipping.size(), every_tick.size());
    return false;
  }

  StageResult stage;
  stage.stage = "serving_ticks";
  stage.machine = "anl";
  stage.detail = std::to_string(serving.size()) + " events (" +
                 std::to_string(tiles) + " tiles x " +
                 std::to_string(slice_events) + "), " +
                 std::to_string(skipping.size()) + " warnings";
  stage.set_timings(
      bench::min_of_reps(
          [&, out = std::vector<predict::Warning>()]() mutable {
            out.clear();
            reference::EveryTickServing core(options);
            serve(core, out);
            if (out.size() != every_tick.size()) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&, out = std::vector<predict::Warning>()]() mutable {
            out.clear();
            online::ServingCore core(options);
            serve(core, out);
            if (out.size() != skipping.size()) std::abort();
          },
          target, max_reps));
  stage.events_per_second = static_cast<double>(serving.size()) /
                            std::max(stage.optimized_seconds, 1e-12);
  results.push_back(stage);
  return true;
}

// ---- raw front-end stages ----------------------------------------------

/// StreamingPipeline against the reference chain on a raw-log slice;
/// false if their events or statistics differ.  `distinct` appends each
/// record's id to its entry, so no two entries repeat.
bool run_preprocess_stage(const std::string& machine,
                          loggen::MachineProfile profile, std::uint64_t seed,
                          bool distinct, bool quick, double target,
                          int max_reps, std::vector<StageResult>& results) {
  constexpr DurationSec kThreshold = 300;  // the paper's production value
  profile.weeks = quick ? 2 : 8;
  logio::VectorSink sink;
  loggen::LogGenerator(profile, seed).generate(sink);
  std::vector<bgl::RasRecord> records = sink.take();
  if (distinct) {
    for (auto& record : records) {
      record.entry_data += " #" + std::to_string(record.record_id);
    }
  }

  std::size_t survivors = 0;
  {
    preprocess::StreamingPipeline pipeline(kThreshold);
    reference::PreprocessChain oracle(kThreshold);
    for (const auto& record : records) {
      const auto event = pipeline.push(record);
      if (event != oracle.push(record)) {
        std::fprintf(stderr, "FAIL: preprocess chains diverge (%s)\n",
                     machine.c_str());
        return false;
      }
      survivors += event.has_value() ? 1 : 0;
    }
    if (!(pipeline.stats() == oracle.stats()) ||
        !(pipeline.categorizer_stats() == oracle.categorizer_stats())) {
      std::fprintf(stderr, "FAIL: preprocess statistics diverge (%s)\n",
                   machine.c_str());
      return false;
    }
  }
  StageResult stage;
  stage.stage = "preprocess_push";
  stage.machine = distinct ? machine + "-distinct" : machine;
  stage.detail = std::to_string(records.size()) + " raw records over " +
                 std::to_string(profile.weeks) + " weeks, " +
                 std::to_string(survivors) + " events" +
                 (distinct ? ", every entry unique" : "");
  stage.set_timings(
      bench::min_of_reps(
          [&] {
            reference::PreprocessChain oracle(kThreshold);
            for (const auto& record : records) oracle.push(record);
            if (oracle.stats().unique_events != survivors) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            preprocess::StreamingPipeline pipeline(kThreshold);
            for (const auto& record : records) pipeline.push(record);
            if (pipeline.stats().unique_events != survivors) std::abort();
          },
          target, max_reps));
  stage.events_per_second = static_cast<double>(records.size()) /
                            std::max(stage.optimized_seconds, 1e-12);
  results.push_back(stage);
  return true;
}

/// Over one buffer cut into `length`-byte calls: slicing-by-8 against
/// the bytewise loop ("crc32"), and common::crc32 against slicing-by-8
/// ("crc32_dispatched", machine = the dispatched variant);
/// events_per_second is bytes per second here.
bool run_crc32_stages(bool quick, double target, int max_reps,
                      std::vector<StageResult>& results) {
  Rng rng(0xC4C);
  std::vector<unsigned char> bytes(quick ? (1u << 20) : (8u << 20));
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64());
  for (const std::size_t length : {std::size_t{24}, std::size_t{83},
                                   std::size_t{42 * 1024}}) {
    const std::size_t calls = bytes.size() / length;
    const auto checksum_all = [&](auto crc) {
      std::uint32_t folded = 0;
      for (std::size_t i = 0; i < calls; ++i) {
        folded ^= crc(bytes.data() + i * length, length);
      }
      return folded;
    };
    const auto bytewise = [](const unsigned char* p, std::size_t n) {
      return reference::crc32_bytewise(p, n);
    };
    const auto slicing = [](const unsigned char* p, std::size_t n) {
      return common::crc32_slicing8(p, n);
    };
    const auto dispatched = [](const unsigned char* p, std::size_t n) {
      return common::crc32(p, n);
    };
    const std::uint32_t expected = checksum_all(bytewise);
    if (checksum_all(slicing) != expected ||
        checksum_all(dispatched) != expected) {
      std::fprintf(stderr, "FAIL: crc32 diverges at %zu-byte buffers\n",
                   length);
      return false;
    }
    const auto timed = [&](auto crc) {
      return bench::min_of_reps(
          [&] {
            if (checksum_all(crc) != expected) std::abort();
          },
          target, max_reps);
    };
    const bench::Timing bytewise_time = timed(bytewise);
    const bench::Timing slicing_time = timed(slicing);
    const bench::Timing dispatched_time = timed(dispatched);
    const std::string detail = std::to_string(calls) + " calls of " +
                               std::to_string(length) +
                               " B (unit/s = bytes/s)";
    for (const bool folded : {false, true}) {
      StageResult stage;
      stage.stage = folded ? "crc32_dispatched" : "crc32";
      stage.machine =
          folded ? std::string(simd::to_string(simd::active().variant)) : "-";
      stage.detail = detail;
      stage.set_timings(folded ? slicing_time : bytewise_time,
                        folded ? dispatched_time : slicing_time);
      stage.events_per_second =
          static_cast<double>(calls * length) /
          std::max(stage.optimized_seconds, 1e-12);
      results.push_back(stage);
    }
  }
  return true;
}

// ---- correlation-graph stages ------------------------------------------

/// Graph build + chain-rule serving on a chain-heavy trace: the two hot
/// paths the correlation subsystem adds (DESIGN.md section 14).
bool run_correlation_stages(bool quick, double target, int max_reps,
                            std::vector<StageResult>& results) {
  auto profile = loggen::MachineProfile::sdsc();
  profile.weeks = quick ? 8 : 16;
  profile.reconfig_week = std::nullopt;
  profile.chain_coverage = 0.6;
  profile.chain_gap_mean = 400;  // stage gaps mostly beyond Wp=300
  profile.chain_final_lead_max = 240;
  const logio::EventStore store(
      loggen::LogGenerator(profile, 2033).generate_unique_events());

  const int train_weeks = quick ? 4 : 8;
  const auto training =
      store.between(store.first_time(),
                    store.first_time() + train_weeks * kSecondsPerWeek);

  // ---- Stage: correlation graph build ---------------------------------
  const learners::correlation::EventGraphConfig graph_config;
  learners::correlation::EventGraph graph(graph_config);
  graph.accumulate(training);
  reference::NaiveEventGraph naive(graph_config);
  naive.accumulate(training);
  // Equivalence: every predecessor list must agree edge for edge, with
  // confidences equal bit for bit (each edge sums the same terms in the
  // same order on both sides).
  for (CategoryId target_cat = 0; target_cat < bgl::taxonomy().size();
       ++target_cat) {
    const auto preds = graph.predecessors(target_cat, 0.0);
    const auto expected = naive.predecessors(target_cat);
    if (preds.size() != expected.size()) {
      std::fprintf(stderr, "FAIL: predecessor count diverges at %u\n",
                   unsigned(target_cat));
      return false;
    }
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i].category != expected[i].category ||
          preds[i].count != expected[i].count ||
          preds[i].confidence != expected[i].confidence) {
        std::fprintf(stderr, "FAIL: graph edge %u->%u diverges\n",
                     unsigned(expected[i].category), unsigned(target_cat));
        return false;
      }
    }
  }

  const CategoryId probe = graph.fatal_categories().front();
  const std::size_t probe_edges = naive.predecessors(probe).size();
  StageResult build;
  build.stage = "correlation_graph_build";
  build.machine = "chain-sdsc";
  build.detail = std::to_string(training.size()) + " events, " +
                 std::to_string(graph.fatal_categories().size()) +
                 " fatal categories";
  build.set_timings(
      bench::min_of_reps(
          [&] {
            reference::NaiveEventGraph g(graph_config);
            g.accumulate(training);
            if (g.predecessors(probe).size() != probe_edges) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            learners::correlation::EventGraph g(graph_config);
            g.accumulate(training);
            if (g.fatal_categories().empty()) std::abort();
          },
          target, max_reps));
  build.events_per_second = static_cast<double>(training.size()) /
                            std::max(build.optimized_seconds, 1e-12);
  results.push_back(build);

  // ---- Stage: chain-rule serving --------------------------------------
  meta::MetaLearnerConfig config;
  config.enable_correlation = true;
  const meta::MetaLearner learner{config};
  const auto repository = learner.learn(training, 300);
  std::size_t chain_rules = 0;
  for (const auto& stored : repository.rules()) {
    if (stored.rule.source() == learners::RuleSource::kCorrelation) {
      ++chain_rules;
    }
  }
  const int serve_weeks = quick ? 2 : 6;
  const auto serving = store.between(
      store.first_time() + train_weeks * kSecondsPerWeek,
      store.first_time() + (train_weeks + serve_weeks) * kSecondsPerWeek);

  std::vector<predict::Warning> optimized_stream;
  {
    predict::Predictor predictor(repository, 300);
    predictor.observe_batch(serving, optimized_stream);
  }
  std::vector<predict::Warning> reference_stream;
  {
    reference::ReferencePredictor predictor(repository, 300);
    for (const auto& event : serving) {
      const auto warnings = predictor.observe(event);
      reference_stream.insert(reference_stream.end(), warnings.begin(),
                              warnings.end());
    }
  }
  if (!same_warnings(optimized_stream, reference_stream)) {
    std::fprintf(stderr, "FAIL: chain serving streams diverge\n");
    return false;
  }

  StageResult serving_stage;
  serving_stage.stage = "chain_serving";
  serving_stage.machine = "chain-sdsc";
  serving_stage.detail =
      std::to_string(serving.size()) + " events, " +
      std::to_string(chain_rules) + " chain rules, " +
      std::to_string(optimized_stream.size()) + " warnings";
  serving_stage.set_timings(
      bench::min_of_reps(
          [&] {
            reference::ReferencePredictor predictor(repository, 300);
            std::size_t total = 0;
            for (const auto& event : serving) {
              total += predictor.observe(event).size();
            }
            if (total != reference_stream.size()) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            predict::Predictor predictor(repository, 300);
            std::vector<predict::Warning> out;
            predictor.observe_batch(serving, out);
            if (out.size() != optimized_stream.size()) std::abort();
          },
          target, max_reps));
  serving_stage.events_per_second =
      static_cast<double>(serving.size()) /
      std::max(serving_stage.optimized_seconds, 1e-12);
  results.push_back(serving_stage);
  return true;
}

// ---- --scale stages ----------------------------------------------------

std::vector<simd::Variant> vector_variants() {
  std::vector<simd::Variant> variants;
  if (simd::supported(simd::Variant::kAvx2)) {
    variants.push_back(simd::Variant::kAvx2);
  }
  if (simd::supported(simd::Variant::kAvx512)) {
    variants.push_back(simd::Variant::kAvx512);
  }
  return variants;
}

/// Raw kernel throughput on miner-shaped inputs: tidsets as wide as a
/// million-transaction bitmap, subset rows shaped like L3 candidates.
void run_kernel_stages(bool quick, double target, int max_reps,
                       std::vector<StageResult>& results) {
  const std::size_t words = quick ? 1563 : 15625;  // 100k / 1M tx bitmap
  const std::size_t tidsets = 48;
  Rng rng(2026);
  std::vector<std::uint64_t> bits(tidsets * words);
  for (auto& word : bits) word = rng.next_u64();

  const auto pair_sweep = [&](const simd::Kernels& kernels) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < tidsets; ++i) {
      for (std::size_t j = i + 1; j < tidsets; ++j) {
        total += kernels.and_popcount(bits.data() + i * words,
                                      bits.data() + j * words, words);
      }
    }
    return total;
  };
  const std::uint64_t pair_words = tidsets * (tidsets - 1) / 2 * words;
  const std::uint64_t expected =
      pair_sweep(simd::kernels(simd::Variant::kScalar));

  // Subset rows shaped like the L3 counter's inputs: transaction bitmaps
  // with a handful of set bits over a 256-category dense id space, and a
  // 3-item candidate mask.
  const std::size_t n_rows = quick ? 100'000 : 1'000'000;
  constexpr std::size_t stride = 4;
  std::vector<std::uint64_t> rows(n_rows * stride, 0);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t bits = 2 + rng.next_u64() % 5;
    for (std::size_t b = 0; b < bits; ++b) {
      const std::uint64_t bit = rng.next_u64() % (stride * 64);
      rows[r * stride + bit / 64] |= 1ULL << (bit % 64);
    }
  }
  std::uint64_t mask[stride] = {0, 0, 0, 0};
  for (int b = 0; b < 3; ++b) {
    const std::uint64_t bit = rng.next_u64() % (stride * 64);
    mask[bit / 64] |= 1ULL << (bit % 64);
  }
  const std::uint32_t expected_subset = simd::kernels(simd::Variant::kScalar)
      .subset_count(rows.data(), n_rows, stride, mask, stride);

  for (const simd::Variant variant : vector_variants()) {
    const auto& kernels = simd::kernels(variant);
    if (pair_sweep(kernels) != expected) {
      std::fprintf(stderr, "FAIL: and_popcount diverges (%s)\n",
                   std::string(simd::to_string(variant)).c_str());
      std::abort();
    }
    StageResult popcnt;
    popcnt.stage = "kernel_and_popcount";
    popcnt.machine = std::string(simd::to_string(variant));
    popcnt.detail = std::to_string(tidsets) + " tidsets x " +
                    std::to_string(words) + " words";
    popcnt.set_timings(
        bench::min_of_reps(
            [&] {
              if (pair_sweep(simd::kernels(simd::Variant::kScalar)) !=
                  expected) {
                std::abort();
              }
            },
            target, max_reps),
        bench::min_of_reps(
            [&] {
              if (pair_sweep(kernels) != expected) std::abort();
            },
            target, max_reps));
    // Words intersected per second: the kernel's native unit.
    popcnt.events_per_second = static_cast<double>(pair_words) /
                               std::max(popcnt.optimized_seconds, 1e-12);
    results.push_back(popcnt);

    if (kernels.subset_count(rows.data(), n_rows, stride, mask, stride) !=
        expected_subset) {
      std::fprintf(stderr, "FAIL: subset_count diverges (%s)\n",
                   std::string(simd::to_string(variant)).c_str());
      std::abort();
    }
    StageResult subset;
    subset.stage = "kernel_subset_count";
    subset.machine = std::string(simd::to_string(variant));
    subset.detail = std::to_string(n_rows) + " rows x " +
                    std::to_string(stride) + " words";
    subset.set_timings(
        bench::min_of_reps(
            [&] {
              if (simd::kernels(simd::Variant::kScalar)
                      .subset_count(rows.data(), n_rows, stride, mask,
                                    stride) != expected_subset) {
                std::abort();
              }
            },
            target, max_reps),
        bench::min_of_reps(
            [&] {
              if (kernels.subset_count(rows.data(), n_rows, stride, mask,
                                       stride) != expected_subset) {
                std::abort();
              }
            },
            target, max_reps));
    subset.events_per_second = static_cast<double>(n_rows) /
                               std::max(subset.optimized_seconds, 1e-12);
    results.push_back(subset);
  }
}

/// Million-transaction mining and ten-million-event serving.  Returns
/// false on an equivalence failure.
bool run_scale_stages(bool quick, double target, int max_reps,
                      std::vector<StageResult>& results) {
  const auto& store = bench::anl_store();
  const DurationSec window = 300;
  const TimeSec serve_after = store.first_time() + 8 * kSecondsPerWeek;
  std::printf("building scale corpus (%s)...\n", quick ? "quick" : "full");
  const bench::ScaleCorpus corpus =
      bench::build_scale_corpus(store, serve_after, quick);

  // ---- Mining: forced-scalar vs dispatched SIMD -----------------------
  // Lower support than the paper default so the candidate lattice (and
  // with it the kernel share of the runtime) matches the breadth a
  // million-transaction corpus actually produces.
  learners::AprioriConfig apriori;
  apriori.min_support = 0.002;
  const simd::Variant best = simd::best_variant();

  simd::force_variant(simd::Variant::kScalar);
  const auto mined_scalar =
      learners::mine_frequent_itemsets(corpus.transactions, apriori);
  simd::force_variant(best);
  const auto mined_simd =
      learners::mine_frequent_itemsets(corpus.transactions, apriori);
  if (!same_itemsets(mined_scalar, mined_simd)) {
    std::fprintf(stderr, "FAIL: scale miners diverge (scalar vs %s)\n",
                 std::string(simd::to_string(best)).c_str());
    return false;
  }

  StageResult mining;
  mining.stage = "scale_mining";
  mining.machine = "anl";
  mining.detail = std::to_string(corpus.transactions.size()) +
                  " transactions, " + std::to_string(mined_simd.size()) +
                  " frequent itemsets, scalar vs " +
                  std::string(simd::to_string(best));
  mining.set_timings(
      bench::min_of_reps(
          [&] {
            simd::force_variant(simd::Variant::kScalar);
            auto f =
                learners::mine_frequent_itemsets(corpus.transactions, apriori);
            if (f.size() != mined_scalar.size()) std::abort();
          },
          target, max_reps),
      bench::min_of_reps(
          [&] {
            simd::force_variant(best);
            auto f =
                learners::mine_frequent_itemsets(corpus.transactions, apriori);
            if (f.size() != mined_simd.size()) std::abort();
          },
          target, max_reps));
  simd::force_variant(best);
  mining.events_per_second = static_cast<double>(corpus.transactions.size()) /
                             std::max(mining.optimized_seconds, 1e-12);
  results.push_back(mining);

  // ---- Serving: reference per-event vs batched Predictor --------------
  const auto training = store.between(store.first_time(), serve_after);
  const meta::MetaLearner learner{meta::MetaLearnerConfig{}};
  const auto repository = learner.learn(training, window);
  const predict::PredictorOptions options;  // plain serving

  std::vector<predict::Warning> optimized_stream;
  {
    predict::Predictor predictor(repository, window, options);
    predictor.observe_batch(corpus.serving, optimized_stream);
  }
  {
    // Reference equivalence on the first tile only: the reference
    // predictor is the per-event semantics anchor, and tiles beyond the
    // first replay the same events (observe_batch-vs-serial identity at
    // full depth is covered by tests/online/test_batch_equivalence.cpp).
    std::vector<predict::Warning> reference_stream;
    reference::ReferencePredictor predictor(repository, window, options);
    const std::span<const bgl::Event> first_tile(
        corpus.serving.data(), corpus.serving_slice_events);
    for (const auto& event : first_tile) {
      const auto warnings = predictor.observe(event);
      reference_stream.insert(reference_stream.end(), warnings.begin(),
                              warnings.end());
    }
    std::vector<predict::Warning> optimized_first;
    predict::Predictor optimized(repository, window, options);
    optimized.observe_batch(first_tile, optimized_first);
    if (!same_warnings(optimized_first, reference_stream)) {
      std::fprintf(stderr, "FAIL: scale serving diverges from reference\n");
      return false;
    }
  }

  StageResult serving;
  serving.stage = "scale_serving_plain";
  serving.machine = "anl";
  serving.detail = std::to_string(corpus.serving.size()) + " events (" +
                   std::to_string(corpus.serving_tiles) + " tiles x " +
                   std::to_string(corpus.serving_slice_events) +
                   "), " + std::to_string(optimized_stream.size()) +
                   " warnings";
  serving.set_timings(
      bench::min_of_reps(
          [&] {
            reference::ReferencePredictor predictor(repository, window,
                                                    options);
            std::size_t total = 0;
            for (const auto& event : corpus.serving) {
              total += predictor.observe(event).size();
            }
            (void)total;
          },
          target, max_reps),
      bench::min_of_reps(
          [&, out = std::vector<predict::Warning>()]() mutable {
            // One reused buffer across reps — the documented serving
            // pattern (observe_batch appends; callers own the buffer).
            out.clear();
            predict::Predictor predictor(repository, window, options);
            predictor.observe_batch(corpus.serving, out);
            if (out.size() != optimized_stream.size()) std::abort();
          },
          target, max_reps));
  serving.events_per_second = static_cast<double>(corpus.serving.size()) /
                              std::max(serving.optimized_seconds, 1e-12);
  results.push_back(serving);
  return true;
}

void write_json(const std::string& path, bool quick, bool scale,
                const std::vector<StageResult>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_hot_paths: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"hot_paths\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"scale\": %s,\n", scale ? "true" : "false");
  std::fprintf(out, "  \"simd_variant\": \"%s\",\n",
               std::string(simd::to_string(simd::best_variant())).c_str());
  double min_mining = 0.0;
  double min_serving = 0.0;
  double scale_mining = 0.0;
  double scale_serving_eps = 0.0;
  for (const auto& r : results) {
    const double s = r.speedup();
    if (r.stage == "apriori_mining") {
      min_mining = min_mining == 0.0 ? s : std::min(min_mining, s);
    }
    if (r.stage == "serving_plain") {
      min_serving = min_serving == 0.0 ? s : std::min(min_serving, s);
    }
    if (r.stage == "scale_mining") scale_mining = s;
    if (r.stage == "scale_serving_plain") {
      scale_serving_eps = r.events_per_second;
    }
  }
  std::fprintf(out, "  \"min_mining_speedup\": %.3f,\n", min_mining);
  std::fprintf(out, "  \"min_serving_speedup\": %.3f,\n", min_serving);
  if (scale) {
    std::fprintf(out, "  \"scale_mining_speedup\": %.3f,\n", scale_mining);
    std::fprintf(out, "  \"scale_serving_events_per_second\": %.0f,\n",
                 scale_serving_eps);
  }
  std::fprintf(out, "  \"stages\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"stage\": \"%s\", \"machine\": \"%s\", "
                 "\"baseline_seconds\": %.6f, \"optimized_seconds\": %.6f, "
                 "\"baseline_repeats\": %d, \"optimized_repeats\": %d, "
                 "\"speedup\": %.3f, \"events_per_second\": %.0f, "
                 "\"detail\": \"%s\"}%s\n",
                 r.stage.c_str(), r.machine.c_str(), r.baseline_seconds,
                 r.optimized_seconds, r.baseline_repeats,
                 r.optimized_repeats, r.speedup(), r.events_per_second,
                 r.detail.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool scale = false;
  std::string out_path = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_hot_paths [--quick] [--scale] [--out FILE]\n");
      return 2;
    }
  }

  bench::print_header(
      "Hot paths — SIMD vertical mining & batched allocation-lean serving",
      "reproduction targets: >=5x Apriori mining, >=1.5x single-shard "
      "serving vs reference; --scale: >=100M events/s plain serving "
      "(DESIGN.md sections 9 and 13)");
  std::printf("simd dispatch: %s\n",
              std::string(simd::to_string(simd::best_variant())).c_str());

  const double target = quick ? 0.05 : 1.0;
  const int max_reps = quick ? 3 : 200;
  std::vector<StageResult> results;
  const std::vector<Workload> workloads = {
      {"anl", &bench::anl_store()},
      {"sdsc", &bench::sdsc_store()},
  };
  for (const auto& workload : workloads) {
    if (!run_machine(workload, quick, target, max_reps, results)) return 1;
  }
  if (!run_serving_ticks_stage(quick, target, max_reps, results) ||
      !run_correlation_stages(quick, target, max_reps, results)) {
    return 1;
  }
  if (!run_preprocess_stage("anl", bench::anl_profile(), bench::kAnlSeed,
                            /*distinct=*/false, quick, target, max_reps,
                            results) ||
      !run_preprocess_stage("anl", bench::anl_profile(), bench::kAnlSeed,
                            /*distinct=*/true, quick, target, max_reps,
                            results) ||
      !run_preprocess_stage("sdsc", bench::sdsc_profile(), bench::kSdscSeed,
                            /*distinct=*/false, quick, target, max_reps,
                            results) ||
      !run_crc32_stages(quick, target, max_reps, results)) {
    return 1;
  }
  if (scale) {
    // Long single calls: cap repeats well below the paper-scale count so
    // a full --scale run stays in minutes, min-of-N still applies.
    const double scale_target = quick ? 0.05 : 2.0;
    const int scale_reps = quick ? 2 : 5;
    run_kernel_stages(quick, scale_target, scale_reps, results);
    if (!run_scale_stages(quick, scale_target, scale_reps, results)) {
      return 1;
    }
  }

  online::TablePrinter table({"stage", "machine", "baseline-s",
                              "optimized-s", "reps", "speedup", "unit/s",
                              "detail"});
  for (const auto& r : results) {
    table.add_row({r.stage, r.machine,
                   online::TablePrinter::fmt(r.baseline_seconds, 4),
                   online::TablePrinter::fmt(r.optimized_seconds, 4),
                   std::to_string(r.baseline_repeats) + "/" +
                       std::to_string(r.optimized_repeats),
                   online::TablePrinter::fmt(r.speedup()) + "x",
                   r.events_per_second > 0
                       ? online::TablePrinter::fmt(r.events_per_second, 0)
                       : "-",
                   r.detail});
  }
  table.print(std::cout);
  write_json(out_path, quick, scale, results);
  return 0;
}
