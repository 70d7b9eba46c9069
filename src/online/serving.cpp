#include "online/serving.hpp"

#include "common/failpoint.hpp"

namespace dml::online {

ServingCore::ServingCore(Options options)
    : options_(options), snapshot_(meta::empty_snapshot()) {}

void ServingCore::adopt(const SnapshotBuild& build,
                        std::vector<predict::Warning>& out) {
  const TimeSec at = build.activate_at;
  if (options_.tick_anchor == TickAnchor::kAbsolute) {
    // Ticks due before the activation instant fire on the old rules; a
    // tick exactly at it fires on the new ones.
    advance(at, out);
  } else {
    // Replay parity: adoption discards the pending grid; the first event
    // served by the new predictor re-anchors it.
    next_tick_.reset();
  }
  snapshot_ = build.repository;
  predictor_ = std::make_unique<predict::Predictor>(*snapshot_, build.window,
                                                    options_.predictor);
  // Warm the fresh predictor's window state on the trailing history so
  // in-flight patterns survive the swap; warm-up warnings are discarded.
  warm_scratch_.clear();
  for (std::size_t i = 0; i < warm_buffer_.size(); ++i) {
    const bgl::Event& event = warm_buffer_[i];
    if (event.time >= at - build.window && event.time < at) {
      warm_scratch_.push_back(event);
    }
  }
  discard_.clear();
  predictor_->observe_batch(warm_scratch_, discard_);
  discard_.clear();
  if (options_.tick_anchor == TickAnchor::kAbsolute && !next_tick_ &&
      options_.clock_tick > 0) {
    next_tick_ = at + options_.clock_tick;
  }
}

void ServingCore::advance(TimeSec t, std::vector<predict::Warning>& out) {
  // The predictor jumps the grid over its PD quiet horizon, so an event
  // flood pays for the ticks that can issue, not for every instant.
  if (predictor_ && next_tick_) {
    predictor_->tick_before(t, *next_tick_, options_.clock_tick, out);
  }
}

void ServingCore::observe(const bgl::Event& event,
                          std::vector<predict::Warning>& out) {
  // Fault injection: `serving.observe` supports throw (the owner's
  // worker quarantines) and delay (a slow serving step); drop/corrupt
  // are ignored here — counted drops live at the owner's feed level.
  common::failpoint(common::failpoints::kServingObserve);
  advance(event.time, out);
  if (options_.tick_anchor == TickAnchor::kInterval && predictor_ &&
      !next_tick_ && options_.clock_tick > 0) {
    next_tick_ = event.time + options_.clock_tick;
  }
  if (predictor_) {
    predictor_->observe_batch({&event, 1}, out);
  }
  if (options_.warm_retention > 0) {
    warm_buffer_.push_back(event);
    while (!warm_buffer_.empty() &&
           warm_buffer_.front().time < event.time - options_.warm_retention) {
      warm_buffer_.pop_front();
    }
  }
}

void ServingCore::observe_batch(std::span<const bgl::Event> events,
                                std::vector<predict::Warning>& out) {
  for (const bgl::Event& event : events) observe(event, out);
}

ServingCore::Options serving_options(const OnlineEngineConfig& config,
                                     ServingCore::TickAnchor anchor) {
  ServingCore::Options options;
  options.clock_tick = config.clock_tick;
  options.predictor = config.predictor;
  options.tick_anchor = anchor;
  options.warm_retention = config.prediction_window;
  return options;
}

}  // namespace dml::online
