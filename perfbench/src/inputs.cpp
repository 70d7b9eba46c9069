// Seeded workload inputs and the engine config both planes share.
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "bgl/taxonomy.hpp"
#include "loggen/generator.hpp"
#include "logio/record_sink.hpp"
#include "online/config_file.hpp"
#include "support/flags.hpp"

namespace perfbench {

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  loggen::MachineProfile profile = loggen::MachineProfile::anl();
  profile.weeks = spec.weeks;
  const loggen::LogGenerator generator(profile, seed);
  Inputs inputs;
  inputs.raw = spec.raw();
  if (inputs.raw) {
    logio::VectorSink sink;
    inputs.events = generator.generate(sink);
    inputs.records = sink.take();
    inputs.times.reserve(inputs.records.size());
    for (const auto& record : inputs.records) {
      inputs.times.push_back(record.event_time);
    }
    return inputs;
  }
  inputs.events = generator.generate_unique_events();
  if (spec.tile_to > 0 && !inputs.events.empty()) {
    // Whole copies shifted by the trace length keep time order and the
    // trace's own failure structure in every copy.
    const std::size_t base = inputs.events.size();
    const TimeSec period =
        static_cast<TimeSec>(profile.weeks) * kSecondsPerWeek;
    inputs.events.reserve((spec.tile_to / base + 1) * base);
    for (TimeSec shift = period; inputs.events.size() < spec.tile_to;
         shift += period) {
      for (std::size_t i = 0; i < base; ++i) {
        bgl::Event event = inputs.events[i];
        event.time += shift;
        inputs.events.push_back(event);
      }
    }
  }
  inputs.times.reserve(inputs.events.size());
  for (const auto& event : inputs.events) inputs.times.push_back(event.time);
  return inputs;
}

online::DriverConfig driver_config(const WorkloadSpec& spec) {
  std::vector<char*> argv;
  for (const std::string& arg : spec.engine_args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  const tools::Flags flags(static_cast<int>(argv.size()), argv.data(), 0);
  if (!flags.error().empty()) throw std::runtime_error(flags.error());

  online::DriverConfig config;
  if (const auto path = flags.get("config")) {
    std::ifstream file(*path);
    if (!file) throw std::runtime_error("cannot open " + *path);
    auto parsed = online::parse_driver_config(file);
    if (const auto* error = std::get_if<online::ConfigError>(&parsed)) {
      throw std::runtime_error(*path + ": " + error->message);
    }
    config = std::get<online::DriverConfig>(parsed);
  }
  config.prediction_window =
      flags.get_long("window", config.prediction_window);
  config.clock_tick = config.prediction_window;
  config.training_weeks = static_cast<int>(
      flags.get_long("training-weeks", config.training_weeks));
  config.retrain_weeks =
      static_cast<int>(flags.get_long("retrain-weeks", config.retrain_weeks));
  const std::string mode = flags.get_or("mode", "sliding");
  if (mode == "sliding") {
    config.mode = online::TrainingMode::kSlidingWindow;
  } else if (mode == "whole") {
    config.mode = online::TrainingMode::kWholeHistory;
  } else if (mode == "static") {
    config.mode = online::TrainingMode::kStatic;
  } else {
    throw std::runtime_error("unknown mode " + mode);
  }
  return config;
}

std::vector<bgl::RasRecord> render_records(
    std::span<const bgl::Event> events) {
  const bgl::Taxonomy& taxonomy = bgl::taxonomy();
  std::vector<bgl::RasRecord> records;
  records.reserve(events.size());
  char detail[32];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bgl::Event& event = events[i];
    const bgl::EventCategory& category = taxonomy.category(event.category);
    bgl::RasRecord record;
    record.record_id = static_cast<RecordId>(i + 1);
    record.event_type = category.event_type;
    record.event_time = event.time;
    record.job_id = event.job_id;
    record.location = event.location;
    record.facility = category.facility;
    record.severity = category.severity;
    std::snprintf(detail, sizeof(detail), " [inst %08zx]", i);
    record.entry_data = category.pattern + detail;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace perfbench
