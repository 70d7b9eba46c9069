// Table 5 — Operation Overhead as a Function of Training Size: rule
// generation (per base learner + ensemble & revise) and rule matching,
// for training sets of 3-30 months.  The paper's absolute numbers come
// from a 1.6 GHz Pentium (minutes); the reproduction target is the
// *scaling shape*: association mining dominates and grows with the
// training size, distribution fitting stays ~flat, matching stays
// trivial.  The "Corr Graph" column times the correlation-graph chain
// learner (DESIGN.md §14, off in the paper configuration) on the same
// training sets.  Uses google-benchmark for the headline stages.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iostream>

#include "learners/correlation/correlation_learner.hpp"
#include "meta/meta_learner.hpp"
#include "online/report.hpp"
#include "predict/outcome_matcher.hpp"
#include "predict/predictor.hpp"
#include "predict/reviser.hpp"
#include "support/bench_logs.hpp"

namespace {

using namespace dml;

/// A long single-era log so a 30-month training window exists.
const logio::EventStore& long_store() {
  static const logio::EventStore store = [] {
    auto profile = bench::sdsc_profile();
    profile.weeks = 140;
    profile.reconfig_week = std::nullopt;
    return logio::EventStore(
        loggen::LogGenerator(profile, 77).generate_unique_events());
  }();
  return store;
}

std::span<const bgl::Event> months_of(int months) {
  const auto& store = long_store();
  return store.between(store.first_time(),
                       store.first_time() + months * kSecondsPerMonth);
}

void BM_RuleGeneration(benchmark::State& state) {
  const auto training = months_of(static_cast<int>(state.range(0)));
  const meta::MetaLearner learner{meta::MetaLearnerConfig{}};
  for (auto _ : state) {
    auto repo = learner.learn(training, 300);
    predict::revise(repo, training, 300);
    benchmark::DoNotOptimize(repo.size());
  }
  state.SetLabel(std::to_string(state.range(0)) + " months");
}
BENCHMARK(BM_RuleGeneration)->Arg(3)->Arg(6)->Arg(12)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_RuleMatching(benchmark::State& state) {
  const auto& store = long_store();
  const auto training = months_of(static_cast<int>(state.range(0)));
  const meta::MetaLearner learner{meta::MetaLearnerConfig{}};
  auto repo = learner.learn(training, 300);
  predict::revise(repo, training, 300);
  const auto test = store.between(
      store.first_time() + state.range(0) * kSecondsPerMonth,
      store.first_time() + (state.range(0) + 1) * kSecondsPerMonth);
  for (auto _ : state) {
    predict::Predictor predictor(repo, 300);
    benchmark::DoNotOptimize(predictor.run(test, 300).size());
  }
  state.SetLabel(std::to_string(state.range(0)) + " months trained");
}
BENCHMARK(BM_RuleMatching)->Arg(6)->Arg(24)->Unit(benchmark::kMillisecond);

/// Prints the full Table 5 analogue with per-stage timings.
void print_table5() {
  bench::print_header(
      "Table 5: Operation Overhead vs Training Size",
      "rule generation grows with training size (association mining "
      "dominates); matching stays trivial");
  online::TablePrinter table({"Training", "Stat Rule", "Asso Rule",
                              "Prob Dist", "Corr Graph",
                              "Ensemble & Revise", "Rule Matching"});
  const meta::MetaLearner learner{meta::MetaLearnerConfig{}};
  for (int months : {3, 6, 12, 18, 24, 30}) {
    const auto training = months_of(months);
    meta::TrainTimes times;
    auto repo = learner.learn(training, 300, &times);

    const auto graph_start = std::chrono::steady_clock::now();
    const auto chains = learners::CorrelationLearner{}.learn(training, 300);
    const double graph_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      graph_start)
            .count();
    benchmark::DoNotOptimize(chains.size());

    const auto revise_start = std::chrono::steady_clock::now();
    predict::revise(repo, training, 300);
    const double revise_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      revise_start)
            .count();

    const auto& store = long_store();
    const auto test =
        store.between(store.first_time() + months * kSecondsPerMonth,
                      store.first_time() + (months + 1) * kSecondsPerMonth);
    const auto match_start = std::chrono::steady_clock::now();
    predict::Predictor predictor(repo, 300);
    const auto warnings = predictor.run(test, 300);
    const double match_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      match_start)
            .count();
    benchmark::DoNotOptimize(warnings.size());

    auto ms = [](double seconds) {
      return online::TablePrinter::fmt(seconds * 1000.0, 1) + " ms";
    };
    table.add_row({std::to_string(months) + " mo",
                   ms(times.statistical_seconds),
                   ms(times.association_seconds),
                   ms(times.distribution_seconds), ms(graph_seconds),
                   ms(times.ensemble_seconds + revise_seconds),
                   ms(match_seconds)});
  }
  table.print(std::cout);
  std::printf(
      "\n(The paper reports minutes on a 2008-era 1.6 GHz Pentium; the "
      "shape — association mining and revising dominating and growing "
      "with training size, matching trivial — is the reproduction "
      "target.)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_table5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
