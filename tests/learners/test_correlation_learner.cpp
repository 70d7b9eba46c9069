#include "learners/correlation/correlation_learner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>

#include "common/failpoint.hpp"
#include "meta/meta_learner.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::learners {
namespace {

using correlation::ChainMinerConfig;
using correlation::EventGraph;
using correlation::EventGraphConfig;

bgl::Event ev(TimeSec t, CategoryId cat, bool fatal = false, int rack = 0,
              int midplane = 0) {
  bgl::Event e;
  e.time = t;
  e.category = cat;
  e.fatal = fatal;
  e.location = bgl::Location::midplane_scope(rack, midplane);
  return e;
}

/// k repetitions of the cascade A(10) -> B(10+gap) -> F, spaced far
/// apart so repetitions never overlap.
std::vector<bgl::Event> cascade_trace(int reps, DurationSec gap,
                                      CategoryId a = 3, CategoryId b = 7,
                                      CategoryId f = 100) {
  std::vector<bgl::Event> events;
  for (int i = 0; i < reps; ++i) {
    const TimeSec base = i * 100000;
    events.push_back(ev(base + 10, a));
    events.push_back(ev(base + 10 + gap, b));
    events.push_back(ev(base + 10 + 2 * gap, f, true));
  }
  return events;
}

TEST(EventGraphTest, AccumulatesEdgesWithinWindowOnly) {
  EventGraphConfig config;
  config.window = 100;
  EventGraph graph(config);
  const std::vector<bgl::Event> events = {
      ev(0, 1), ev(50, 2),  // 1 -> 2 within the window
      ev(500, 3),           // too late for an edge from 1 or 2
  };
  graph.accumulate(events);
  const auto to2 = graph.predecessors(2, 0.0);
  ASSERT_EQ(to2.size(), 1u);
  EXPECT_EQ(to2[0].category, 1);
  EXPECT_EQ(to2[0].count, 1u);
  EXPECT_TRUE(graph.predecessors(3, 0.0).empty());
}

TEST(EventGraphTest, DecayWeightsTightCouplingsHigher) {
  EventGraphConfig config;
  config.window = 900;
  config.decay_tau = 300;
  EventGraph graph(config);
  // 1 -> 3 with a 10 s gap, 2 -> 3 with an 805 s gap; both inside the
  // window, but the tight edge must carry more confidence.
  graph.accumulate(std::vector<bgl::Event>{ev(0, 2), ev(795, 1), ev(805, 3)});
  const auto preds = graph.predecessors(3, 0.0);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].category, 1);  // ascending source order
  EXPECT_EQ(preds[1].category, 2);
  EXPECT_GT(preds[0].confidence, preds[1].confidence);
}

TEST(EventGraphTest, FatalCategoriesAreNeverSources) {
  EventGraph graph{EventGraphConfig{}};
  graph.accumulate(std::vector<bgl::Event>{
      ev(0, 100, /*fatal=*/true), ev(10, 5), ev(20, 101, true)});
  // 100 -> 5 must not exist (fatal source); 5 -> 101 must.
  EXPECT_TRUE(graph.predecessors(5, 0.0).empty());
  const auto preds = graph.predecessors(101, 0.0);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].category, 5);
  EXPECT_EQ(graph.fatal_categories(), (std::vector<CategoryId>{100, 101}));
  EXPECT_EQ(graph.fatal_occurrences(100), 1u);
}

TEST(EventGraphTest, MidplaneScopingSeparatesStreams) {
  EventGraph scoped{EventGraphConfig{}};
  // Same categories, different midplanes: no adjacency.
  scoped.accumulate(std::vector<bgl::Event>{ev(0, 1, false, 0, 0),
                                            ev(10, 2, false, 1, 0)});
  EXPECT_TRUE(scoped.predecessors(2, 0.0).empty());

  EventGraphConfig flat;
  flat.scope_by_midplane = false;
  EventGraph unscoped(flat);
  unscoped.accumulate(std::vector<bgl::Event>{ev(0, 1, false, 0, 0),
                                              ev(10, 2, false, 1, 0)});
  EXPECT_EQ(unscoped.predecessors(2, 0.0).size(), 1u);
}

TEST(EventGraphTest, NoAdjacencyAcrossAccumulateSeam) {
  EventGraph graph{EventGraphConfig{}};
  graph.accumulate(std::vector<bgl::Event>{ev(0, 1)});
  // Second span starts moments later; the seam must still break the
  // 1 -> 2 pair (spans are independent windows).
  graph.accumulate(std::vector<bgl::Event>{ev(10, 2)});
  EXPECT_TRUE(graph.predecessors(2, 0.0).empty());
}

// ---- EventGraph against the naive rescanning oracle ---------------------

/// Folds each span into an EventGraph and into reference::NaiveEventGraph
/// (one accumulate() call per span) and requires every target's
/// predecessors(t, 0.0) to equal the oracle's edge for edge: same sources
/// in ascending order, same counts, confidences equal under ==.  Returns
/// the number of edges compared, so callers can rule out a vacuous pass.
std::size_t expect_matches_reference(
    const EventGraphConfig& config,
    std::initializer_list<std::span<const bgl::Event>> spans) {
  EventGraph graph(config);
  reference::NaiveEventGraph naive(config);
  std::uint32_t top = 0;
  for (const auto span : spans) {
    graph.accumulate(span);
    naive.accumulate(span);
    for (const bgl::Event& event : span) {
      if (event.category != kInvalidCategory) {
        top = std::max<std::uint32_t>(top, event.category);
      }
    }
  }
  std::size_t edges = 0;
  for (std::uint32_t target = 0; target <= top; ++target) {
    const auto got = graph.predecessors(static_cast<CategoryId>(target), 0.0);
    const auto want = naive.predecessors(static_cast<CategoryId>(target));
    EXPECT_EQ(got.size(), want.size()) << "target " << target;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].category, want[i].category) << "target " << target;
      EXPECT_EQ(got[i].count, want[i].count)
          << want[i].category << " -> " << target;
      EXPECT_EQ(got[i].confidence, want[i].confidence)
          << want[i].category << " -> " << target;
    }
    edges += want.size();
  }
  return edges;
}

std::vector<bgl::Event> generated_trace(loggen::MachineProfile profile,
                                        std::uint64_t seed) {
  const logio::EventStore store(
      loggen::LogGenerator(profile, seed).generate_unique_events());
  return {store.all().begin(), store.all().end()};
}

TEST(EventGraphReference, GeneratedAnlAndSdscTraces) {
  for (const bool anl : {true, false}) {
    auto profile = anl ? loggen::MachineProfile::anl()
                       : loggen::MachineProfile::sdsc();
    profile.weeks = 16;
    for (const std::uint64_t seed : {testing::kSeed, std::uint64_t{1001}}) {
      SCOPED_TRACE(std::string(anl ? "anl" : "sdsc") + " seed " +
                   std::to_string(seed));
      const auto trace = generated_trace(profile, seed);
      EXPECT_GT(expect_matches_reference({}, {trace}), 100u);
    }
  }
}

TEST(EventGraphReference, ChainHeavySdscTrace) {
  // The chain-heavy profile bench_hot_paths times the graph build on.
  auto profile = loggen::MachineProfile::sdsc();
  profile.weeks = 16;
  profile.reconfig_week = std::nullopt;
  profile.chain_coverage = 0.6;
  profile.chain_gap_mean = 400;
  profile.chain_final_lead_max = 240;
  const auto trace = generated_trace(profile, 2033);
  EXPECT_GT(expect_matches_reference({}, {trace}), 100u);
}

TEST(EventGraphReference, GapOfExactlyWindowIsAdjacent) {
  EventGraphConfig config;
  config.window = 900;
  // 1 -> 2 at a gap of exactly the window; 1 has expired by 4's arrival
  // one second later.  2 and 3 are still live at the first 5, not at the
  // second.
  const std::vector<bgl::Event> events = {ev(0, 1),    ev(900, 2),
                                          ev(900, 3),  ev(901, 4),
                                          ev(1800, 5), ev(1801, 5)};
  EXPECT_EQ(expect_matches_reference(config, {events}), 8u);
  EventGraph graph(config);
  graph.accumulate(events);
  const auto to2 = graph.predecessors(2, 0.0);
  ASSERT_EQ(to2.size(), 1u);
  EXPECT_EQ(to2[0].confidence, std::exp(-900.0 / 300.0));
  const auto to4 = graph.predecessors(4, 0.0);
  ASSERT_EQ(to4.size(), 2u);
  EXPECT_EQ(to4[0].category, 2);
  EXPECT_EQ(to4[1].category, 3);
  const auto to5 = graph.predecessors(5, 0.0);
  ASSERT_EQ(to5.size(), 3u);
  EXPECT_EQ(to5[2].category, 4);
  EXPECT_EQ(to5[2].count, 2u);
}

TEST(EventGraphReference, SameCategoryTwiceInOneSecond) {
  const std::vector<bgl::Event> events = {
      ev(0, 1), ev(10, 2), ev(10, 2), ev(10, 3), ev(10, 1), ev(20, 3)};
  EXPECT_GT(expect_matches_reference({}, {events}), 0u);
  EventGraph graph{EventGraphConfig{}};
  graph.accumulate(events);
  // Both arrivals of 2 follow the one 1: two observations, no self-edge.
  const auto to2 = graph.predecessors(2, 0.0);
  ASSERT_EQ(to2.size(), 1u);
  EXPECT_EQ(to2[0].count, 2u);
}

std::vector<bgl::Event> interleaved_midplanes() {
  std::vector<bgl::Event> events;
  for (int i = 0; i < 40; ++i) {
    const int rack = i % 3;
    const int midplane = (i / 3) % 2;
    events.push_back(ev(i * 50, static_cast<CategoryId>(1 + i % 7),
                        /*fatal=*/i % 11 == 10, rack, midplane));
  }
  return events;
}

TEST(EventGraphReference, InterleavedMidplanes) {
  EXPECT_GT(expect_matches_reference({}, {interleaved_midplanes()}), 0u);
}

TEST(EventGraphReference, UnscopedGraph) {
  EventGraphConfig flat;
  flat.scope_by_midplane = false;
  const auto events = interleaved_midplanes();
  const std::size_t unscoped = expect_matches_reference(flat, {events});
  EXPECT_GT(unscoped, expect_matches_reference({}, {events}));
}

TEST(EventGraphReference, FatalEventsBetweenPrecursors) {
  // 2 also occurs as a fatal event: it gains in-edges there but must not
  // refresh its own recency entry.
  const std::vector<bgl::Event> events = {
      ev(0, 1),  ev(5, 100, true),  ev(10, 2), ev(15, 101, true),
      ev(20, 1), ev(25, 2, true),   ev(30, 3), ev(35, 100, true),
      ev(45, 2), ev(50, 100, true)};
  EXPECT_GT(expect_matches_reference({}, {events}), 0u);
}

TEST(EventGraphReference, TwoAccumulateCalls) {
  // Edges and occurrences add up across a seam; adjacency does not.  The
  // second span opens within the window of the first span's tail; the
  // third starts the clock over (spans need not be ordered).
  const auto first = cascade_trace(6, 300);
  const TimeSec tail = first.back().time;
  const std::vector<bgl::Event> second = {
      ev(tail + 100, 7), ev(tail + 200, 3), ev(tail + 300, 100, true)};
  const std::vector<bgl::Event> third = {ev(10, 7), ev(20, 3), ev(30, 7),
                                         ev(40, 100, true)};
  EXPECT_GT(expect_matches_reference({}, {first, second, third}), 0u);
}

TEST(EventGraphReference, HighestCategoryId) {
  constexpr CategoryId kTop = 0xFFFE;
  const std::vector<bgl::Event> events = {
      ev(0, kTop), ev(10, 1), ev(20, kTop), ev(30, 2, true), ev(40, kTop)};
  EXPECT_GT(expect_matches_reference({}, {events}), 0u);
  EventGraph graph{EventGraphConfig{}};
  graph.accumulate(events);
  const auto to_top = graph.predecessors(kTop, 0.0);
  ASSERT_EQ(to_top.size(), 1u);
  EXPECT_EQ(to_top[0].category, 1);
  EXPECT_EQ(to_top[0].count, 2u);
}

TEST(ChainMinerTest, RecoversOrderedChainAndOnlyMaximalForm) {
  EventGraphConfig graph_config;
  graph_config.window = 900;
  EventGraph graph(graph_config);
  graph.accumulate(cascade_trace(20, 400));

  ChainMinerConfig miner;
  const auto rules = correlation::mine_chains(graph, miner);
  ASSERT_EQ(rules.size(), 1u);
  const auto* chain = rules[0].as_correlation();
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->chain, (std::vector<CategoryId>{3, 7}));
  EXPECT_EQ(chain->consequent, 100);
  EXPECT_GT(chain->confidence, miner.min_chain_confidence);
  EXPECT_GT(chain->support, 0.9);  // every fatal had the full cascade
  EXPECT_EQ(chain->stage_window, graph_config.window);
}

TEST(ChainMinerTest, SinglePrecursorPairsAreLeftToAssociation) {
  // B -> F alone (no A stage): below min_chain_length, nothing emitted.
  EventGraph graph{EventGraphConfig{}};
  std::vector<bgl::Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(ev(i * 100000 + 10, 7));
    events.push_back(ev(i * 100000 + 200, 100, true));
  }
  graph.accumulate(events);
  EXPECT_TRUE(correlation::mine_chains(graph, {}).empty());
}

TEST(ChainMinerTest, DeterministicAcrossRepeatedMines) {
  EventGraph graph{EventGraphConfig{}};
  graph.accumulate(cascade_trace(15, 300));
  graph.accumulate(cascade_trace(15, 300, 9, 11, 101));
  const auto a = correlation::mine_chains(graph, {});
  const auto b = correlation::mine_chains(graph, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].identity(), b[i].identity());
  }
}

TEST(CorrelationLearnerTest, LearnsChainsFromTrainingSpan) {
  CorrelationLearner learner;
  const auto trace = cascade_trace(20, 400);
  const auto rules = learner.learn(trace, testing::kWp);
  ASSERT_FALSE(rules.empty());
  for (const auto& rule : rules) {
    EXPECT_EQ(rule.source(), RuleSource::kCorrelation);
  }
}

TEST(CorrelationLearnerTest, BuildFailpointThrows) {
  common::FailpointRegistry::instance().reset();
  ASSERT_TRUE(common::FailpointRegistry::instance().arm_from_string(
      "learners.correlation.build=throw"));
  CorrelationLearner learner;
  const auto trace = cascade_trace(5, 400);
  EXPECT_THROW(learner.learn(trace, testing::kWp), std::exception);
  common::FailpointRegistry::instance().reset();
}

TEST(CorrelationLearnerTest, MetaLearnerIntegration) {
  meta::MetaLearnerConfig config;
  config.enable_correlation = true;
  const meta::MetaLearner meta(config);
  const auto trace = cascade_trace(20, 400);
  meta::TrainTimes times;
  const auto repo = meta.learn(trace, testing::kWp, &times);
  std::size_t chain_rules = 0;
  for (const auto& stored : repo.rules()) {
    if (stored.rule.source() == RuleSource::kCorrelation) ++chain_rules;
  }
  EXPECT_GT(chain_rules, 0u);
  EXPECT_GT(times.correlation_seconds, 0.0);
  // Precedence: chain rules are inserted right after association rules,
  // before every other source (dispatch order == insertion order).
  bool seen_later_source = false;
  for (const auto& stored : repo.rules()) {
    const auto source = stored.rule.source();
    if (source != RuleSource::kAssociation &&
        source != RuleSource::kCorrelation) {
      seen_later_source = true;
    } else if (source == RuleSource::kCorrelation) {
      EXPECT_FALSE(seen_later_source)
          << "chain rule found after a lower-precedence source";
    }
  }
}

TEST(CorrelationLearnerTest, DisabledByDefaultInMetaLearner) {
  const meta::MetaLearner meta{meta::MetaLearnerConfig{}};
  const auto repo = meta.learn(cascade_trace(20, 400), testing::kWp);
  for (const auto& stored : repo.rules()) {
    EXPECT_NE(stored.rule.source(), RuleSource::kCorrelation);
  }
}

}  // namespace
}  // namespace dml::learners
