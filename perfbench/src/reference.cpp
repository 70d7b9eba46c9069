// The output check's reference (an in-process ShardedEngine fed the same
// input and config as the daemon) and the paper's quality metrics.
#include <algorithm>

#include "bench.hpp"
#include "online/sharded_engine.hpp"
#include "predict/outcome_matcher.hpp"

namespace perfbench {

std::vector<predict::Warning> reference_warnings(const WorkloadSpec& spec,
                                                 const Inputs& inputs) {
  std::vector<predict::Warning> out;
  online::ShardedEngine engine(
      online::sharded_config_from_driver(driver_config(spec), 2),
      [&](const predict::Warning& w) { out.push_back(w); });
  if (inputs.raw) {
    for (const auto& record : inputs.records) engine.consume(record);
  } else {
    const std::span<const bgl::Event> events(inputs.events);
    for (std::size_t offset = 0; offset < events.size();
         offset += kBatch) {
      engine.consume_batch(events.subspan(
          offset, std::min(kBatch, events.size() - offset)));
    }
  }
  engine.finish();
  return out;
}

stats::ConfusionCounts served_counts(const WorkloadSpec& spec,
                                     const Inputs& inputs,
                                     std::vector<predict::Warning> warnings) {
  const online::DriverConfig config = driver_config(spec);
  if (inputs.events.empty()) return {};
  // Serving starts at the first training boundary.
  const TimeSec served_from =
      inputs.events.front().time +
      static_cast<TimeSec>(config.training_weeks) * kSecondsPerWeek;
  const auto first = std::lower_bound(
      inputs.events.begin(), inputs.events.end(), served_from,
      [](const bgl::Event& e, TimeSec t) { return e.time < t; });
  std::stable_sort(warnings.begin(), warnings.end(),
                   [](const predict::Warning& a, const predict::Warning& b) {
                     return a.issued_at < b.issued_at;
                   });
  const auto result = predict::evaluate_predictions(
      std::span(inputs.events).subspan(first - inputs.events.begin()),
      warnings, config.prediction_window);
  return result.overall;
}

}  // namespace perfbench
