// ServingCore on its own: a fresh predictor is warmed from the core's own
// trailing buffer of observed events, the two tick-anchoring disciplines
// decide which rules a clock tick near an adoption runs on, ticks come
// every clock_tick whatever window a build was mined with, a
// static-mode boundary is an adoption of the rules already in force, and
// jumping the ticks the PD quiet horizon proves silent changes nothing.
#include "online/serving.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "bgl/taxonomy.hpp"
#include "common/rng.hpp"
#include "loggen/generator.hpp"
#include "meta/meta_learner.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

using predict::Warning;

bgl::Event ev(TimeSec t, CategoryId category, bool fatal = false) {
  bgl::Event e;
  e.time = t;
  e.category = category;
  e.fatal = fatal;
  return e;
}

meta::KnowledgeRepository association(std::vector<CategoryId> antecedent,
                                      CategoryId consequent) {
  meta::KnowledgeRepository rules;
  learners::AssociationRule rule;
  rule.antecedent = std::move(antecedent);
  rule.consequent = consequent;
  rule.confidence = 0.9;
  rules.add(learners::Rule{rule});
  return rules;
}

meta::KnowledgeRepository distribution(DurationSec elapsed_trigger) {
  meta::KnowledgeRepository rules;
  learners::DistributionRule rule;
  rule.model = stats::LifetimeModel{
      stats::LifetimeModel::Variant(stats::Exponential{1.0 / 10000.0})};
  rule.cdf_threshold = 0.6;
  rule.elapsed_trigger = elapsed_trigger;
  rules.add(learners::Rule{rule});
  return rules;
}

SnapshotBuild build_of(meta::RepositorySnapshot rules, DurationSec window,
                       TimeSec activate_at) {
  SnapshotBuild build;
  build.repository = std::move(rules);
  build.window = window;
  build.scheduled_at = activate_at;
  build.activate_at = activate_at;
  return build;
}

std::vector<TimeSec> issue_times(const std::vector<Warning>& warnings) {
  std::vector<TimeSec> times;
  for (const auto& w : warnings) times.push_back(w.issued_at);
  return times;
}

ServingCore::Options untimed(DurationSec warm_retention) {
  ServingCore::Options options;
  options.clock_tick = 0;
  options.warm_retention = warm_retention;
  return options;
}

TEST(ServingCore, AdoptionWarmsOnTheBufferedWindowBeforeActivation) {
  const auto rules = meta::freeze(association({1, 2}, 50));
  std::vector<Warning> out;

  // The antecedent's first half arrives before any rules exist; the
  // adopted predictor replays it, so the second half completes the rule.
  ServingCore core(untimed(300));
  core.observe(ev(1000, 1), out);
  core.adopt(build_of(rules, 300, 1100), out);
  EXPECT_TRUE(out.empty());  // warm-up warnings are discarded
  core.observe(ev(1200, 2), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].issued_at, 1200);
  EXPECT_EQ(out[0].category, 50);

  // The warm span is [activate_at - window, activate_at): an event at
  // the activation instant is not replayed.
  out.clear();
  ServingCore late(untimed(300));
  late.observe(ev(1100, 1), out);
  late.adopt(build_of(rules, 300, 1100), out);
  late.observe(ev(1200, 2), out);
  EXPECT_TRUE(out.empty());
}

TEST(ServingCore, BufferKeepsWarmRetentionAndNoMore) {
  // The build's window (900 s) reaches back to the antecedent at t=1000,
  // but the buffer holds only warm_retention of history behind the last
  // event it observed.
  const auto run = [](DurationSec warm_retention) {
    std::vector<Warning> out;
    ServingCore core(untimed(warm_retention));
    core.observe(ev(1000, 1), out);
    core.observe(ev(1400, 3), out);
    core.adopt(build_of(meta::freeze(association({1, 2}, 50)), 900, 1500), out);
    core.observe(ev(1600, 2), out);
    return out.size();
  };
  EXPECT_EQ(run(900), 1u);
  // Dropped from the buffer at t=1400, so never replayed.
  EXPECT_EQ(run(300), 0u);
  // No retention: fresh predictors start cold.
  EXPECT_EQ(run(0), 0u);
}

TEST(ServingCore, IntervalAdoptionDiscardsTheTickGridAndReanchors) {
  ServingCore::Options options;
  options.clock_tick = 100;
  options.tick_anchor = ServingCore::TickAnchor::kInterval;
  options.warm_retention = 300;
  ServingCore core(options);
  const auto rules = meta::freeze(distribution(50));

  std::vector<Warning> out;
  core.adopt(build_of(rules, 300, 1000), out);
  // The first event after an adoption anchors the grid: 1100, 1200, ...
  core.observe(ev(1000, 9, /*fatal=*/true), out);
  // ... and the next adoption discards it.
  core.adopt(build_of(rules, 300, 1050), out);
  EXPECT_TRUE(out.empty());

  // No tick at 1100 or 1200: the fatal at 1230 speaks for itself (its
  // elapsed-time base, t=1000, came from the warm-up) and re-anchors the
  // grid, so the next tick is 1330.
  core.observe(ev(1230, 9, /*fatal=*/true), out);
  core.observe(ev(1335, 7), out);
  EXPECT_EQ(issue_times(out), (std::vector<TimeSec>{1230, 1330}));
}

TEST(ServingCore, AbsoluteTicksBeforeActivationFireOnTheOldRules) {
  const auto run = [](TimeSec activate_at) {
    ServingCore::Options options;
    options.clock_tick = 100;
    options.tick_anchor = ServingCore::TickAnchor::kAbsolute;
    options.warm_retention = 300;
    options.predictor.deduplicate_warnings = false;
    ServingCore core(options);
    std::vector<Warning> out;
    // Grid: 1100, 1200, ... from the first adoption on.
    core.adopt(build_of(meta::freeze(distribution(50)), 300, 1000), out);
    core.observe(ev(1010, 9, /*fatal=*/true), out);
    // The next rules have no distribution expert: only ticks run on the
    // old rules can warn.
    core.adopt(build_of(meta::empty_snapshot(), 300, activate_at), out);
    core.observe(ev(1400, 7), out);
    return issue_times(out);
  };
  EXPECT_EQ(run(1250), (std::vector<TimeSec>{1100, 1200}));
  // A tick exactly at the activation instant runs on the new rules.
  EXPECT_EQ(run(1200), (std::vector<TimeSec>{1100}));
}

TEST(ServingCore, TicksComeEveryClockTickWhateverTheBuildWindow) {
  // Rules mined with a 900 s window are still checked every clock_tick:
  // the cadence is the configured one, not the build's window.
  const auto run = [](ServingCore::TickAnchor anchor) {
    ServingCore::Options options;
    options.clock_tick = 100;
    options.tick_anchor = anchor;
    options.warm_retention = 900;
    options.predictor.deduplicate_warnings = false;
    ServingCore core(options);
    std::vector<Warning> out;
    core.adopt(build_of(meta::freeze(distribution(50)), 900, 1000), out);
    core.observe(ev(1010, 9, /*fatal=*/true), out);
    core.advance(1450, out);
    return issue_times(out);
  };
  // kAbsolute: the grid runs from the adoption.
  EXPECT_EQ(run(ServingCore::TickAnchor::kAbsolute),
            (std::vector<TimeSec>{1100, 1200, 1300, 1400}));
  // kInterval: the first event after the adoption anchors it.
  EXPECT_EQ(run(ServingCore::TickAnchor::kInterval),
            (std::vector<TimeSec>{1110, 1210, 1310, 1410}));
}

TEST(ServingCore, StaticBoundaryRefreshesThePredictorOnTheSameRules) {
  // A static-mode boundary at t=1250 keeps the rules and the window but
  // serves them from a fresh predictor, warmed on the buffered fatal at
  // t=1000.
  const auto run = [](ServingCore::TickAnchor anchor) {
    ServingCore::Options options;
    options.clock_tick = 100;
    options.tick_anchor = anchor;
    options.warm_retention = 300;
    ServingCore core(options);
    std::vector<Warning> out;
    core.adopt(build_of(meta::freeze(distribution(50)), 300, 1000), out);
    core.observe(ev(1000, 9, /*fatal=*/true), out);
    // Both grids tick at 1100; its warning holds deduplication to 1700.
    core.advance(1150, out);
    core.adopt(build_of(core.snapshot(), 300, 1250), out);
    // Deduplication is cleared: the event at 1260 warns.
    core.observe(ev(1260, 7), out);
    // A fatal re-bases the elapsed-time clock, so the next tick warns.
    core.observe(ev(1270, 9, /*fatal=*/true), out);
    core.observe(ev(1380, 7), out);
    return issue_times(out);
  };
  // kInterval discards the grid (no tick at 1200 on the fresh predictor)
  // and the first event after the boundary re-anchors it: 1360.
  EXPECT_EQ(run(ServingCore::TickAnchor::kInterval),
            (std::vector<TimeSec>{1100, 1260, 1360}));
  // kAbsolute keeps its grid: the tick at 1300 comes too early to warn,
  // so the event at 1380 does.
  EXPECT_EQ(run(ServingCore::TickAnchor::kAbsolute),
            (std::vector<TimeSec>{1100, 1260, 1380}));

  // The predictor is fresh, not the old one replayed: with the boundary
  // at 1350 the fatal at 1000 lies outside the warm span [1050, 1350),
  // so no elapsed-time clock survives and nothing warns after 1700,
  // when the old warning's deduplication would have lapsed.
  const auto forgets = [](ServingCore::TickAnchor anchor) {
    ServingCore::Options options;
    options.clock_tick = 100;
    options.tick_anchor = anchor;
    options.warm_retention = 300;
    ServingCore core(options);
    std::vector<Warning> out;
    core.adopt(build_of(meta::freeze(distribution(50)), 300, 1000), out);
    core.observe(ev(1000, 9, /*fatal=*/true), out);
    core.advance(1150, out);
    core.adopt(build_of(core.snapshot(), 300, 1350), out);
    core.advance(1900, out);
    core.observe(ev(1950, 7), out);
    return issue_times(out);
  };
  EXPECT_EQ(forgets(ServingCore::TickAnchor::kInterval),
            (std::vector<TimeSec>{1100}));
  EXPECT_EQ(forgets(ServingCore::TickAnchor::kAbsolute),
            (std::vector<TimeSec>{1100}));
}

/// 16 weeks of ANL unique events.
const std::vector<bgl::Event>& anl_stream() {
  static const auto events = [] {
    loggen::MachineProfile profile = loggen::MachineProfile::anl();
    profile.weeks = 16;
    return loggen::LogGenerator(profile, testing::kSeed)
        .generate_unique_events();
  }();
  return events;
}

/// Bursty events on two midplanes, fatal clusters included.
std::vector<bgl::Event> two_midplane_stream(Rng& rng, std::size_t count) {
  std::vector<bgl::Event> events;
  TimeSec t = 1000;
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<TimeSec>(rng.uniform_index(240));
    bgl::Event e = ev(t, static_cast<CategoryId>(
                             rng.uniform_index(bgl::taxonomy().size())));
    e.fatal = bgl::taxonomy().category(e.category).fatal;
    e.location = bgl::Location::compute_chip(
        0, static_cast<int>(rng.uniform_index(2)),
        static_cast<int>(rng.uniform_index(4)), 0, 0);
    events.push_back(e);
  }
  return events;
}

auto warning_key(const Warning& w) {
  return std::tuple(w.issued_at, w.deadline,
                    w.category.value_or(kInvalidCategory),
                    w.location ? w.location->packed() : 0xffffffffu, w.rule_id,
                    static_cast<int>(w.source));
}

TEST(ServingCore, SkippedTicksEqualATickAtEveryInstant) {
  // advance() jumps the tick grid over the predictor's PD quiet horizon;
  // the stream must equal ticking at every grid instant, in per-scope
  // and plain mode, under both anchors, at the paper's cadence and at a
  // cadence far below the event gaps, with and without a PD rule (a
  // repository without one has an unbounded horizon), across a
  // static-boundary re-adoption that resets every clock.
  meta::MetaLearnerConfig no_pd_config;
  no_pd_config.enable_distribution = false;
  const auto no_pd = meta::freeze(meta::MetaLearner{no_pd_config}.learn(
      testing::weeks_of(testing::shared_store(), 0, 26), testing::kWp));
  ASSERT_EQ(no_pd->count_by_source(learners::RuleSource::kDistribution), 0u);
  const auto trained = meta::freeze(testing::shared_repository());
  Rng rng(testing::fuzz_seed(6303));
  const auto fuzzed = two_midplane_stream(rng, 3000);
  const std::span<const bgl::Event> streams[] = {anl_stream(), fuzzed};

  for (const auto& rules : {trained, no_pd}) {
    for (const auto events : streams) {
      for (const bool per_scope : {true, false}) {
        for (const auto anchor : {ServingCore::TickAnchor::kAbsolute,
                                  ServingCore::TickAnchor::kInterval}) {
          for (const DurationSec tick : {DurationSec{300}, DurationSec{7}}) {
            ServingCore::Options options;
            options.clock_tick = tick;
            options.tick_anchor = anchor;
            options.warm_retention = testing::kWp;
            options.predictor.per_scope_state = per_scope;
            ServingCore core(options);
            reference::EveryTickServing oracle(options);
            std::vector<Warning> got;
            std::vector<Warning> want;
            const auto adopt_both = [&](TimeSec at) {
              const auto build = build_of(rules, testing::kWp, at);
              core.adopt(build, got);
              oracle.adopt(build, want);
            };
            adopt_both(events.front().time);
            const std::size_t boundary = events.size() / 2;
            for (std::size_t i = 0; i < events.size(); ++i) {
              if (i == boundary) adopt_both(events[i].time);
              core.observe(events[i], got);
              oracle.observe(events[i], want);
            }
            const TimeSec end = events.back().time + 10 * tick;
            core.advance(end, got);
            oracle.advance(end, want);

            const std::string label =
                std::string(rules == no_pd ? "no-PD" : "trained") +
                (events.data() == fuzzed.data() ? " fuzzed" : " anl") +
                (per_scope ? " per-scope" : " plain") +
                (anchor == ServingCore::TickAnchor::kAbsolute
                     ? " absolute"
                     : " interval") +
                " tick " + std::to_string(tick);
            ASSERT_EQ(got.size(), want.size()) << label;
            for (std::size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(warning_key(got[i]), warning_key(want[i]))
                  << label << " #" << i;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dml::online
