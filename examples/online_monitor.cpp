// Online monitoring session: streams a raw RAS log record-by-record
// through online::ShardedEngine — inline preprocessing, retraining on
// the shared pool, midplane-sharded serving, and a warning callback
// playing the role of an operator console.  This is the deployment mode
// of paper §4.3 against the library's embeddable engine API.
//
//   ./online_monitor [weeks] [max_warnings_printed]
#include <cstdio>
#include <cstdlib>

#include "common/civil_time.hpp"
#include "loggen/generator.hpp"
#include "online/sharded_engine.hpp"
#include "predict/outcome_matcher.hpp"

int main(int argc, char** argv) {
  using namespace dml;
  const int weeks = argc > 1 ? std::atoi(argv[1]) : 36;
  const int max_printed = argc > 2 ? std::atoi(argv[2]) : 25;

  auto profile = loggen::MachineProfile::sdsc();
  profile.weeks = weeks;
  loggen::LogGenerator generator(profile, 2);
  const auto& taxonomy = bgl::taxonomy();

  online::ShardedEngineConfig config;
  config.shards = 2;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 26 * kSecondsPerWeek;

  int printed = 0;
  std::vector<predict::Warning> all_warnings;
  // The merger invokes the callback serially, in issued_at order.
  online::ShardedEngine engine(config, [&](const predict::Warning& warning) {
    all_warnings.push_back(warning);
    if (printed >= max_printed) return;
    ++printed;
    std::printf("[%s] WARNING (%s): %s expected within %llds%s\n",
                format_timestamp(warning.issued_at).c_str(),
                std::string(to_string(warning.source)).c_str(),
                warning.category
                    ? taxonomy.category(*warning.category).name.c_str()
                    : "a failure",
                static_cast<long long>(warning.deadline - warning.issued_at),
                warning.location
                    ? (" at " + warning.location->to_string()).c_str()
                    : "");
  });

  // Stream the raw log straight into the engine.
  class EngineSink final : public logio::RecordSink {
   public:
    explicit EngineSink(online::ShardedEngine& engine) : engine_(&engine) {}
    void consume(const bgl::RasRecord& record) override {
      engine_->consume(record);
    }

   private:
    online::ShardedEngine* engine_;
  };
  EngineSink sink(engine);
  const auto ground_truth = generator.generate(sink);

  // End of stream: drain the shards before reading the session.
  const auto stats = engine.finish();
  std::printf(
      "\nsession summary: %llu raw records -> %llu unique events, "
      "%llu failures, %llu warnings (%d shown), %llu retrainings, "
      "%zu rules in force\n",
      static_cast<unsigned long long>(stats.records_consumed),
      static_cast<unsigned long long>(stats.events_after_filtering),
      static_cast<unsigned long long>(stats.failures_seen),
      static_cast<unsigned long long>(stats.warnings_issued), printed,
      static_cast<unsigned long long>(stats.retrainings),
      engine.rules_snapshot()->size());

  // Score the session against the ground-truth unique events (from the
  // first retraining onward).
  const TimeSec eval_begin =
      profile.start_time + config.engine.retrain_interval;
  std::vector<bgl::Event> test_events;
  for (const auto& e : ground_truth) {
    if (e.time >= eval_begin) test_events.push_back(e);
  }
  std::vector<predict::Warning> evaluated;
  for (const auto& w : all_warnings) {
    if (w.issued_at >= eval_begin) evaluated.push_back(w);
  }
  const auto evaluation = predict::evaluate_predictions(
      test_events, evaluated, config.engine.prediction_window);
  std::printf("precision %.2f, recall %.2f over the online session\n",
              stats::precision(evaluation.overall),
              stats::recall(evaluation.overall));
  return 0;
}
