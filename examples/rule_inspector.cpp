// Rule inspector: trains the full ensemble (including the correlation
// expert), prints the resulting rule book with the reviser's per-rule
// statistics, and reports operational quality on a held-out span —
// warning lead times and per-failure-category coverage.
//
//   ./rule_inspector [weeks] [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "loggen/generator.hpp"
#include "logio/event_store.hpp"
#include "meta/meta_learner.hpp"
#include "predict/analysis.hpp"
#include "predict/predictor.hpp"
#include "predict/reviser.hpp"

int main(int argc, char** argv) {
  using namespace dml;
  const int weeks = argc > 1 ? std::atoi(argv[1]) : 40;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;

  auto profile = loggen::MachineProfile::sdsc();
  profile.weeks = weeks;
  const loggen::LogGenerator generator(profile, seed);
  const logio::EventStore store(generator.generate_unique_events());
  const auto& taxonomy = bgl::taxonomy();

  const DurationSec window = 300;
  const TimeSec origin = store.first_time();
  const TimeSec split = origin + (weeks * 2 / 3) * kSecondsPerWeek;
  const auto training = store.between(origin, split);
  const auto test = store.between(split, store.last_time() + 1);

  meta::MetaLearnerConfig config;
  config.enable_correlation = true;
  meta::MetaLearner learner{config};
  auto repository = learner.learn(training, window);
  const auto report = predict::revise(repository, training, window);

  std::printf("trained on %zu events; %zu rules survive the reviser "
              "(%zu pruned)\n\n",
              training.size(), repository.size(), report.removed);

  // The rule book, grouped by source, best training-ROC first.
  for (const auto source : learners::kRuleSources) {
    std::vector<const meta::StoredRule*> rules;
    for (const auto& stored : repository.rules()) {
      if (stored.rule.source() == source) rules.push_back(&stored);
    }
    if (rules.empty()) continue;
    std::sort(rules.begin(), rules.end(),
              [](const meta::StoredRule* a, const meta::StoredRule* b) {
                return a->roc > b->roc;
              });
    std::printf("== %s (%zu rules) ==\n",
                std::string(to_string(source)).c_str(), rules.size());
    const std::size_t shown = std::min<std::size_t>(8, rules.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& stored = *rules[i];
      std::printf("  [roc %.2f, tp %llu fp %llu fn %llu] %s\n", stored.roc,
                  static_cast<unsigned long long>(
                      stored.training_counts.true_positives),
                  static_cast<unsigned long long>(
                      stored.training_counts.false_positives),
                  static_cast<unsigned long long>(
                      stored.training_counts.false_negatives),
                  stored.rule.describe(taxonomy).c_str());
    }
    if (rules.size() > shown) {
      std::printf("  ... and %zu more\n", rules.size() - shown);
    }
  }

  // Held-out operational quality.
  predict::Predictor predictor(repository, window);
  const auto warnings = predictor.run(test, window);
  const auto leads = predict::lead_time_stats(test, warnings, window);
  std::printf("\nheld-out span: %zu warnings, %zu covered failures\n",
              warnings.size(), leads.matched_warnings);
  std::printf("lead time: median %.0f s (p10 %.0f, p90 %.0f); %.0f%% give "
              ">= 1 min of notice\n",
              leads.median_seconds, leads.p10_seconds, leads.p90_seconds,
              100.0 * leads.actionable_fraction);

  std::printf("\ntop failure categories by volume (held-out):\n");
  const auto accuracy = predict::per_category_accuracy(test, warnings, window);
  const std::size_t top = std::min<std::size_t>(10, accuracy.size());
  for (std::size_t i = 0; i < top; ++i) {
    const auto& entry = accuracy[i];
    std::printf("  %-55s %4zu failures, recall %.2f\n",
                taxonomy.category(entry.category).name.c_str(),
                entry.failures, entry.recall());
  }
  return 0;
}
