// Checkpoint advisor: the paper's motivating application (§1.1) — "for
// reactive methods such as checkpointing, an efficient failure
// prediction could substantially reduce their operational cost by
// telling when and where to perform checkpoints, rather than blindly
// invoking actions periodically."
//
// This example compares, on a simulated log:
//   * periodic checkpointing at several intervals, versus
//   * prediction-driven checkpointing (checkpoint only on a warning),
// measuring checkpoint count and lost compute time per failure.
//
//   ./checkpoint_advisor [weeks]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "loggen/generator.hpp"
#include "logio/event_store.hpp"
#include "meta/meta_learner.hpp"
#include "predict/predictor.hpp"
#include "predict/reviser.hpp"

namespace {

using namespace dml;

struct CheckpointOutcome {
  std::size_t checkpoints = 0;
  double lost_seconds = 0.0;  // work since last checkpoint, summed at failures
  std::size_t failures = 0;

  double lost_per_failure() const {
    return failures == 0 ? 0.0
                         : lost_seconds / static_cast<double>(failures);
  }
};

/// Periodic checkpointing every `interval` seconds.  After a failure the
/// application restarts, which acts as an implicit checkpoint for the
/// lost-work accounting (work "since" the failure restarts from there).
CheckpointOutcome periodic(const logio::EventStore& store, TimeSec begin,
                           DurationSec interval) {
  CheckpointOutcome outcome;
  TimeSec last_checkpoint = begin;
  TimeSec next_checkpoint = begin + interval;
  for (TimeSec failure : store.fatal_times()) {
    if (failure < begin) continue;
    while (next_checkpoint <= failure) {
      last_checkpoint = next_checkpoint;
      next_checkpoint += interval;
      ++outcome.checkpoints;
    }
    outcome.lost_seconds += static_cast<double>(failure - last_checkpoint);
    ++outcome.failures;
    last_checkpoint = failure;  // restart
  }
  return outcome;
}

/// Prediction-driven: checkpoint when an imminent warning arrives, plus
/// a periodic safety net.  The rule set is retrained every four weeks on
/// the most recent history — the paper's dynamic regime; a frozen rule
/// set would lose its association rules to pattern drift.
CheckpointOutcome prediction_driven(const logio::EventStore& store,
                                    TimeSec begin, DurationSec safety_net) {
  const DurationSec window = 300;
  const TimeSec origin = store.first_time();

  const meta::MetaLearner learner;
  auto repository = std::make_unique<meta::KnowledgeRepository>();
  auto predictor = std::make_unique<predict::Predictor>(*repository, window);
  TimeSec next_retrain = begin;
  auto maybe_retrain = [&](TimeSec now) {
    if (now < next_retrain) return;
    const TimeSec train_begin = std::max(origin, now - 26 * kSecondsPerWeek);
    const auto training = store.between(train_begin, now);
    auto fresh = std::make_unique<meta::KnowledgeRepository>(
        learner.learn(training, window));
    predict::revise(*fresh, training, window);
    repository = std::move(fresh);
    predictor = std::make_unique<predict::Predictor>(*repository, window);
    next_retrain = now + 4 * kSecondsPerWeek;
  };

  CheckpointOutcome outcome;
  TimeSec last_checkpoint = begin;
  TimeSec next_safety = begin + safety_net;
  TimeSec next_tick = begin + window;
  TimeSec last_warning_checkpoint = 0;

  auto take_checkpoint = [&](TimeSec t) {
    last_checkpoint = t;
    ++outcome.checkpoints;
  };

  // Only *imminent* warnings (association: precursors observed;
  // statistical: cascade in progress) trigger an immediate checkpoint.
  // Distribution warnings flag a diffuse multi-hour horizon — reacting
  // to them with a checkpoint hours before the failure buys nothing the
  // safety net doesn't already provide.
  auto handle_warnings = [&](const std::vector<predict::Warning>& warnings,
                             TimeSec now) {
    const bool imminent = std::any_of(
        warnings.begin(), warnings.end(), [](const predict::Warning& w) {
          return w.source != learners::RuleSource::kDistribution;
        });
    if (imminent && now - last_warning_checkpoint >= 60) {
      last_warning_checkpoint = now;
      take_checkpoint(now);
    }
  };

  for (const auto& event : store.between(begin, store.last_time() + 1)) {
    maybe_retrain(event.time);
    while (next_tick < event.time) {
      handle_warnings(predictor->tick(next_tick), next_tick);
      next_tick += window;
    }
    while (next_safety <= event.time) {
      take_checkpoint(next_safety);
      next_safety += safety_net;
    }
    handle_warnings(predictor->observe(event), event.time);
    if (event.fatal) {
      outcome.lost_seconds +=
          static_cast<double>(event.time - last_checkpoint);
      ++outcome.failures;
      last_checkpoint = event.time;  // restart
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const int weeks = argc > 1 ? std::atoi(argv[1]) : 40;

  auto profile = loggen::MachineProfile::sdsc();
  profile.weeks = weeks;
  loggen::LogGenerator generator(profile, 3);
  const logio::EventStore store(generator.generate_unique_events());
  const TimeSec begin = store.first_time() + 12 * kSecondsPerWeek;

  std::printf("%-28s  %-12s  %-16s\n", "strategy", "checkpoints",
              "lost h / failure");
  for (DurationSec interval :
       {kSecondsPerHour, 4 * kSecondsPerHour, 12 * kSecondsPerHour}) {
    const auto outcome = periodic(store, begin, interval);
    std::printf("%-28s  %-12zu  %-16.2f\n",
                ("periodic every " + std::to_string(interval / 3600) + "h")
                    .c_str(),
                outcome.checkpoints, outcome.lost_per_failure() / 3600.0);
  }
  const auto smart = prediction_driven(store, begin, 4 * kSecondsPerHour);
  std::printf("%-28s  %-12zu  %-16.2f\n",
              "prediction-driven (+4h net)", smart.checkpoints,
              smart.lost_per_failure() / 3600.0);

  // Budget-matched periodic baseline: same number of checkpoints spread
  // uniformly.
  const DurationSec span = store.last_time() - begin;
  const DurationSec matched_interval =
      span /
      static_cast<DurationSec>(std::max<std::size_t>(1, smart.checkpoints));
  const auto matched = periodic(store, begin, matched_interval);
  std::printf("%-28s  %-12zu  %-16.2f\n", "periodic @ matched budget",
              matched.checkpoints, matched.lost_per_failure() / 3600.0);

  const double baseline = matched.lost_per_failure();
  const double change =
      baseline > 0.0 ? smart.lost_per_failure() / baseline - 1.0 : 0.0;
  std::printf(
      "\nAt an equal checkpoint budget, warning-triggered checkpoints %s "
      "the lost work per failure by %.0f%%\n(paper §1.1: prediction tells "
      "checkpointing *when*, instead of blindly invoking it "
      "periodically).  The gain scales with the predictor's recall on "
      "lead failures.\n",
      change <= 0.0 ? "cut" : "raise", 100.0 * std::abs(change));
  return 0;
}
