#include "learners/correlation/correlation_learner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/failpoint.hpp"
#include "meta/meta_learner.hpp"
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
