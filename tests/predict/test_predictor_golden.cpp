// Golden equivalence for the serving fast path: the allocation-lean
// Predictor (dense E-List, flat maps, running fatal counts, sink API)
// must emit a warning stream element-for-element identical to the
// hash-map reference predictor — across plain, location-scoped and
// per-scope-state modes, with clock ticks interleaved, on both the
// trained shared log and fuzzed event streams.
#include "predict/predictor.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bgl/taxonomy.hpp"
#include "common/rng.hpp"
#include "meta/meta_learner.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::predict {
namespace {

auto warning_key(const Warning& w) {
  return std::tuple(w.issued_at, w.deadline,
                    w.category.value_or(kInvalidCategory),
                    w.location ? w.location->packed() : 0xffffffffu, w.rule_id,
                    static_cast<int>(w.source));
}

void expect_identical_streams(const std::vector<Warning>& optimized,
                              const std::vector<Warning>& reference,
                              const std::string& label) {
  ASSERT_EQ(optimized.size(), reference.size()) << label;
  for (std::size_t i = 0; i < optimized.size(); ++i) {
    EXPECT_EQ(warning_key(optimized[i]), warning_key(reference[i]))
        << label << " #" << i;
  }
}

PredictorOptions mode_options(int mode) {
  PredictorOptions options;
  if (mode == 1) options.location_scoped = true;
  if (mode == 2) options.per_scope_state = true;
  return options;
}

const char* mode_name(int mode) {
  return mode == 0 ? "plain" : mode == 1 ? "scoped" : "per-scope";
}

TEST(PredictorGolden, TrainedReplayMatchesReferenceInAllModes) {
  const auto& repository = testing::shared_repository();
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 26, 30);
  ASSERT_FALSE(events.empty());
  for (int mode = 0; mode < 3; ++mode) {
    const auto options = mode_options(mode);
    Predictor optimized(repository, testing::kWp, options);
    reference::ReferencePredictor ref(repository, testing::kWp, options);
    // run() interleaves PD clock ticks with events — the full serving
    // surface (observe + tick + expiry) in one pass.
    const auto got = optimized.run(events, testing::kWp);
    const auto want = ref.run(events, testing::kWp);
    EXPECT_FALSE(got.empty()) << mode_name(mode);
    expect_identical_streams(got, want, mode_name(mode));
  }
}

TEST(PredictorGolden, ObserveIntoAppendsWithoutClearing) {
  const auto& repository = testing::shared_repository();
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 26, 28);
  Predictor per_call(repository, testing::kWp);
  Predictor sink(repository, testing::kWp);
  std::vector<Warning> accumulated;
  std::vector<Warning> collected;
  for (const auto& event : events) {
    const auto warnings = per_call.observe(event);
    collected.insert(collected.end(), warnings.begin(), warnings.end());
    sink.observe_batch({&event, 1}, accumulated);  // never cleared
  }
  expect_identical_streams(accumulated, collected, "sink-vs-per-call");
}

/// A bursty multi-midplane event stream: enough fatal clustering to
/// drive the statistical expert and per-scope clocks hard.
std::vector<bgl::Event> fuzz_events(Rng& rng, std::size_t count) {
  std::vector<bgl::Event> events;
  TimeSec t = 1000;
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<TimeSec>(rng.uniform_index(240));
    bgl::Event e;
    e.time = t;
    e.category =
        static_cast<CategoryId>(rng.uniform_index(bgl::taxonomy().size()));
    e.fatal = bgl::taxonomy().category(e.category).fatal;
    e.location = bgl::Location::compute_chip(
        static_cast<int>(rng.uniform_index(2)),
        static_cast<int>(rng.uniform_index(2)),
        static_cast<int>(rng.uniform_index(4)), 0, 0);
    events.push_back(e);
  }
  return events;
}

TEST(PredictorGolden, FuzzedStreamsMatchReferenceInAllModes) {
  Rng rng(testing::fuzz_seed(6301));
  const auto& repository = testing::shared_repository();
  for (int round = 0; round < 6; ++round) {
    const auto events = fuzz_events(rng, 2500);
    for (int mode = 0; mode < 3; ++mode) {
      const auto options = mode_options(mode);
      Predictor optimized(repository, testing::kWp, options);
      reference::ReferencePredictor ref(repository, testing::kWp, options);
      const auto got = optimized.run(events, testing::kWp);
      const auto want = ref.run(events, testing::kWp);
      expect_identical_streams(
          got, want,
          std::string(mode_name(mode)) + " round " + std::to_string(round));
    }
  }
}

/// Predictor::run as it was before it skipped provably empty ticks: a
/// tick_into at every grid instant before each event.
std::vector<Warning> run_every_tick(Predictor& predictor,
                                    std::span<const bgl::Event> events,
                                    DurationSec tick_interval) {
  std::vector<Warning> all;
  std::optional<TimeSec> next_tick;
  for (const auto& event : events) {
    if (!next_tick) next_tick = event.time + tick_interval;
    while (*next_tick < event.time) {
      predictor.tick_into(*next_tick, all);
      *next_tick += tick_interval;
    }
    predictor.observe_batch({&event, 1}, all);
  }
  return all;
}

TEST(PredictorGolden, RunEqualsATickAtEveryInstant) {
  // run() jumps over ticks it can prove are empty; the stream must equal
  // ticking every instant, in every mode, with and without a PD rule (a
  // repository without one has an unbounded quiet horizon).
  const auto& store = testing::shared_store();
  meta::MetaLearnerConfig no_pd_config;
  no_pd_config.enable_distribution = false;
  const auto no_pd = meta::MetaLearner{no_pd_config}.learn(
      testing::weeks_of(store, 0, 26), testing::kWp);
  ASSERT_EQ(no_pd.count_by_source(learners::RuleSource::kDistribution), 0u);
  Rng rng(testing::fuzz_seed(6302));
  const auto fuzzed = fuzz_events(rng, 3000);
  const std::span<const bgl::Event> streams[] = {
      testing::weeks_of(store, 26, 34), fuzzed};
  for (const auto* repository : {&testing::shared_repository(), &no_pd}) {
    for (const auto events : streams) {
      for (int mode = 0; mode < 3; ++mode) {
        const auto options = mode_options(mode);
        for (const DurationSec interval : {testing::kWp, DurationSec{7}}) {
          Predictor skipping(*repository, testing::kWp, options);
          Predictor every(*repository, testing::kWp, options);
          expect_identical_streams(
              skipping.run(events, interval),
              run_every_tick(every, events, interval),
              std::string(mode_name(mode)) +
                  (repository == &no_pd ? " no-PD" : " trained") +
                  " tick " + std::to_string(interval));
        }
      }
    }
  }
}

TEST(PredictorGolden, NoDeduplicationModeMatches) {
  // deduplicate_warnings=false floods the stream; the flat active_ map
  // is still written on every issue, so equivalence must hold here too.
  const auto& repository = testing::shared_repository();
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 26, 27);
  PredictorOptions options;
  options.deduplicate_warnings = false;
  options.mixture_precedence = false;
  Predictor optimized(repository, testing::kWp, options);
  reference::ReferencePredictor ref(repository, testing::kWp, options);
  expect_identical_streams(optimized.run(events, testing::kWp),
                           ref.run(events, testing::kWp), "no-dedup");
}

}  // namespace
}  // namespace dml::predict
