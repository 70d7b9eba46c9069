// The traced run: the workload's input through nested stages of public
// calls, one span per call, then the per-layer ledger.
//
//   preprocess  StreamingPipeline::push
//   learners    MetaLearner::learn and predict::revise per boundary
//   predict     Predictor::observe_batch
//   serving     ServingCore::adopt / observe_batch      (wraps predict)
//   engine      ShardedEngine::consume* / finish        (wraps the above)
//   wire        net::append_ingest_* / decode_ingest_*
//   storage     LogWriter::append / close
//   loopback    the real dmlfpd
//
// A wrapping layer's calls cannot be split from inside without touching
// src/, so its self time is its stage's time minus the inner stages'
// times on the same input (clamped at zero where shards overlap).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "meta/meta_learner.hpp"
#include "meta/snapshot.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "online/serving.hpp"
#include "online/sharded_engine.hpp"
#include "predict/reviser.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "storage/log_writer.hpp"

namespace perfbench {

namespace {

/// Per-record APIs get one span per run of this many calls.
constexpr std::size_t kRun = 4096;
/// Layers a workload bypasses (preprocess on event input, storage
/// without --repo) are still measured, on at most this many items.
constexpr std::size_t kBypassCap = 1 << 20;
/// Stop-and-wait frames of the ack round-trip probe; below the daemon's
/// 64-frame admission queue, so no probe frame is refused.
constexpr std::size_t kRttFrames = 48;
/// Tracing overhead: every in-process stage runs this many more times
/// untraced and then traced, on at most kOverheadCap items per stage.
constexpr int kOverheadPairs = 3;
constexpr std::size_t kOverheadCap = 1 << 18;
constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

struct Build {
  TimeSec boundary = 0;
  meta::RepositorySnapshot repository;
  std::size_t training = 0;
  double seconds = 0.0;
};

bool before(const bgl::Event& event, TimeSec t) { return event.time < t; }

std::size_t index_at(std::span<const bgl::Event> events, TimeSec t) {
  return std::lower_bound(events.begin(), events.end(), t, before) -
         events.begin();
}

template <class T>
std::span<const T> head(const std::vector<T>& items, std::size_t limit) {
  return std::span(items).first(std::min(limit, items.size()));
}

/// Boundaries as RetrainScheduler places them: anchored at the first
/// event, the first after the initial span, then every Wr; an event past
/// several boundaries fires only the latest one.
std::vector<TimeSec> boundaries(std::span<const bgl::Event> events,
                                const online::OnlineEngineConfig& config) {
  std::vector<TimeSec> out;
  if (events.empty()) return out;
  TimeSec next = events.front().time + config.initial_training_delay;
  for (const bgl::Event& event : events) {
    if (event.time < next) continue;
    const TimeSec b =
        next + (event.time - next) / config.retrain_interval *
                   config.retrain_interval;
    out.push_back(b);
    next = b + config.retrain_interval;
    if (config.mode == online::TrainingMode::kStatic) break;
  }
  return out;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double ns_per(double seconds, std::size_t items) {
  return items ? seconds * 1e9 / static_cast<double>(items) : 0.0;
}

/// The in-process stages over one workload input.  Each takes the tracer
/// that records its spans (nullptr records none) and, where the input is
/// large, the most items it may work on, so the tracing-overhead check
/// can run it again on a prefix.
class Stages {
 public:
  struct Learned {
    std::vector<Build> builds;
    meta::TrainTimes times;
  };
  struct Predicted {
    std::size_t events = 0;
    std::size_t warnings = 0;
  };
  struct Engined {
    std::vector<predict::Warning> warnings;
    std::vector<online::ShardedEngine::ShardReport> shards;
  };

  Stages(const WorkloadSpec& spec, const Inputs& inputs, std::string repo)
      : inputs_(inputs),
        repo_(std::move(repo)),
        sharded_(online::sharded_config_from_driver(driver_config(spec), 2)),
        config_(sharded_.engine),
        lag_(config_.adoption_lag > 0 ? config_.adoption_lag
                                      : config_.prediction_window),
        predictor_options_(config_.predictor) {
    predictor_options_.location_scoped = true;
    predictor_options_.per_scope_state = true;
    if (!inputs.raw) {
      rendered_ = render_records(head(inputs.events, kBypassCap));
    }
  }

  /// StreamingPipeline::push over the raw records (over the events
  /// rendered one record each on event input); the events the chain
  /// keeps go to `kept` when given.
  preprocess::PipelineStats run_preprocess(
      Tracer* t, std::size_t limit, std::vector<bgl::Event>* kept) const {
    const auto records = inputs_.raw ? head(inputs_.records, limit)
                                     : head(rendered_, limit);
    preprocess::StreamingPipeline pipeline(config_.filter_threshold);
    SpanScope stage(t, "stage.preprocess");
    for (std::size_t off = 0; off < records.size(); off += kRun) {
      const std::size_t k = std::min(kRun, records.size() - off);
      SpanScope span(t, "preprocess.push", stage.id(), k);
      for (const bgl::RasRecord& record : records.subspan(off, k)) {
        if (auto event = pipeline.push(record); event && kept) {
          kept->push_back(*event);
        }
      }
    }
    return pipeline.stats();
  }

  Learned run_learners(Tracer* t, std::span<const bgl::Event> served) const {
    Learned out;
    SpanScope stage(t, "stage.learners");
    meta::MetaLearnerConfig learner_config = config_.learner;
    learner_config.enable_decision_tree = false;
    learner_config.enable_neural_net = false;
    // Single-threaded, as in the engine's asynchronous builds.
    learner_config.parallel_training = false;
    const meta::MetaLearner learner(learner_config);
    for (const TimeSec b : boundaries(served, config_)) {
      const std::size_t first =
          config_.mode == online::TrainingMode::kSlidingWindow
              ? index_at(served, b - config_.training_span)
              : 0;
      const auto training =
          served.subspan(first, index_at(served, b) - first);
      const auto start = Clock::now();
      meta::TrainTimes times;
      meta::KnowledgeRepository repository = [&] {
        SpanScope span(t, "learners.learn", stage.id(), training.size());
        return learner.learn(training, config_.prediction_window, &times);
      }();
      out.times += times;
      if (config_.use_reviser) {
        SpanScope span(t, "meta.revise", stage.id(), training.size());
        predict::revise(repository, training, config_.prediction_window,
                        config_.reviser);
      }
      out.builds.push_back({b, meta::freeze(std::move(repository)),
                            training.size(),
                            seconds_between(start, Clock::now())});
    }
    return out;
  }

  /// A fresh Predictor per build, over the span that build serves.
  Predicted run_predict(Tracer* t, std::span<const bgl::Event> served,
                        const std::vector<Build>& builds) const {
    Predicted out;
    SpanScope stage(t, "stage.predict");
    std::vector<predict::Warning> warnings;
    for (std::size_t i = 0; i < builds.size(); ++i) {
      const auto [from, to] = served_range(served, builds, i);
      predict::Predictor predictor(*builds[i].repository,
                                   config_.prediction_window,
                                   predictor_options_);
      for (std::size_t off = from; off < to; off += kBatch) {
        const std::size_t k = std::min(kBatch, to - off);
        warnings.clear();
        SpanScope span(t, "predict.observe_batch", stage.id(), k);
        predictor.observe_batch(served.subspan(off, k), warnings);
        out.events += k;
        out.warnings += warnings.size();
      }
    }
    return out;
  }

  /// One ServingCore adopting every build in turn; returns the events
  /// it served.
  std::size_t run_serving(Tracer* t, std::span<const bgl::Event> served,
                          const std::vector<Build>& builds) const {
    SpanScope stage(t, "stage.serving");
    online::ServingCore::Options options;
    options.clock_tick = config_.clock_tick;
    options.predictor = predictor_options_;
    options.tick_anchor = online::ServingCore::TickAnchor::kAbsolute;
    options.warm_retention = config_.prediction_window;
    online::ServingCore core(options);
    std::vector<predict::Warning> out;
    std::size_t events = 0;
    for (std::size_t i = 0; i < builds.size(); ++i) {
      online::SnapshotBuild build;
      build.repository = builds[i].repository;
      build.window = config_.prediction_window;
      build.scheduled_at = builds[i].boundary;
      build.activate_at = builds[i].boundary + lag_;
      {
        out.clear();
        SpanScope span(t, "serving.adopt", stage.id());
        core.adopt(build, out);
      }
      const auto [from, to] = served_range(served, builds, i);
      for (std::size_t off = from; off < to; off += kBatch) {
        const std::size_t k = std::min(kBatch, to - off);
        out.clear();
        SpanScope span(t, "serving.observe_batch", stage.id(), k);
        core.observe_batch(served.subspan(off, k), out);
        events += k;
      }
    }
    return events;
  }

  /// The whole ShardedEngine on the input the daemon receives, fed as
  /// the daemon's pump feeds it.
  Engined run_engine(Tracer* t, std::size_t limit) const {
    Engined out;
    SpanScope stage(t, "stage.engine");
    online::ShardedEngine engine(
        sharded_, [&](const predict::Warning& w) { out.warnings.push_back(w); });
    if (inputs_.raw) {
      const auto records = head(inputs_.records, limit);
      for (std::size_t off = 0; off < records.size(); off += kRun) {
        const std::size_t k = std::min(kRun, records.size() - off);
        SpanScope span(t, "engine.consume", stage.id(), k);
        for (const bgl::RasRecord& record : records.subspan(off, k)) {
          engine.consume(record);
        }
      }
    } else {
      const auto events = head(inputs_.events, limit);
      for (std::size_t off = 0; off < events.size(); off += kBatch) {
        const std::size_t k = std::min(kBatch, events.size() - off);
        SpanScope span(t, "engine.consume_batch", stage.id(), k);
        engine.consume_batch(events.subspan(off, k));
      }
    }
    SpanScope span(t, "engine.finish", stage.id());
    engine.finish();
    out.shards = engine.shard_reports();
    return out;
  }

  /// Encodes the input into INGEST frames and decodes them back; returns
  /// the bytes on the wire.
  std::uint64_t run_wire(Tracer* t, std::size_t limit) const {
    SpanScope stage(t, "stage.wire");
    const std::size_t n = std::min(limit, inputs_.items());
    std::vector<unsigned char> frame;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
    std::size_t decoded = 0;
    for (std::size_t off = 0; off < n; off += kBatch) {
      const std::size_t k = std::min(kBatch, n - off);
      frame.clear();
      {
        SpanScope span(t, "net.wire.encode", stage.id(), k);
        if (inputs_.raw) {
          net::append_ingest_records(
              frame, 1, seq, std::span(inputs_.records).subspan(off, k));
        } else {
          net::append_ingest_events(frame, 1, seq,
                                    std::span(inputs_.events).subspan(off, k));
        }
      }
      ++seq;
      bytes += frame.size();
      SpanScope span(t, "net.wire.decode", stage.id(), k);
      const net::DecodedFrame decoded_frame =
          net::decode_frame(frame.data(), frame.size());
      if (decoded_frame.status != net::DecodeStatus::kFrame) {
        throw std::runtime_error("wire stage: undecodable frame");
      }
      if (inputs_.raw) {
        const auto msg = net::decode_ingest_records(decoded_frame.payload);
        decoded += msg ? msg->records.size() : 0;
      } else {
        const auto msg = net::decode_ingest_events(decoded_frame.payload);
        decoded += msg ? msg->events.size() : 0;
      }
    }
    if (decoded != n) {
      throw std::runtime_error("wire stage: decoded item count differs");
    }
    return bytes;
  }

  /// LogWriter (through CanonicalAppender) on a fresh repository;
  /// returns the repository's size on disk.
  std::uint64_t run_storage(Tracer* t,
                            std::span<const bgl::Event> events) const {
    std::filesystem::remove_all(repo_);
    {
      SpanScope stage(t, "stage.storage");
      storage::LogWriter writer(repo_, "anl", storage::LogWriterOptions{});
      storage::CanonicalAppender appender(writer);
      for (std::size_t off = 0; off < events.size(); off += kRun) {
        const std::size_t k = std::min(kRun, events.size() - off);
        SpanScope span(t, "storage.append", stage.id(), k);
        for (const bgl::Event& event : events.subspan(off, k)) {
          appender.append(event);
        }
      }
      SpanScope span(t, "storage.close", stage.id());
      appender.flush();
      writer.close();
    }
    const std::uint64_t bytes = directory_bytes(repo_);
    std::filesystem::remove_all(repo_);
    return bytes;
  }

 private:
  /// Build i serves from its boundary plus the adoption lag (the
  /// engine's deterministic adoption) until the next build's adoption.
  std::pair<std::size_t, std::size_t> served_range(
      std::span<const bgl::Event> served, const std::vector<Build>& builds,
      std::size_t i) const {
    return {index_at(served, builds[i].boundary + lag_),
            i + 1 < builds.size()
                ? index_at(served, builds[i + 1].boundary + lag_)
                : served.size()};
  }

  const Inputs& inputs_;
  const std::string repo_;
  const online::ShardedEngineConfig sharded_;
  const online::OnlineEngineConfig& config_;
  const DurationSec lag_;
  predict::PredictorOptions predictor_options_;
  std::vector<bgl::RasRecord> rendered_;
};

}  // namespace

RunOutcome run_traced(const Env& env, const WorkloadSpec& spec,
                      const Inputs& inputs) {
  Tracer tracer;
  const Stages stages(spec, inputs, env.workdir + "/traced-repo");
  std::vector<Metric> m;

  // ---- preprocess --------------------------------------------------------
  std::vector<bgl::Event> kept;
  const preprocess::PipelineStats pstats =
      stages.run_preprocess(&tracer, kAll, inputs.raw ? &kept : nullptr);
  // What the daemon's engine serves.
  const std::vector<bgl::Event> served =
      inputs.raw ? std::move(kept) : inputs.events;
  const double raw_records = static_cast<double>(pstats.raw_records);
  m.push_back({"preprocess.ns_per_record",
               ns_per(tracer.seconds("preprocess.push"), pstats.raw_records),
               "ns"});
  m.push_back({"preprocess.survival",
               static_cast<double>(pstats.unique_events) / raw_records,
               "ratio"});
  m.push_back({"preprocess.unclassified_share",
               static_cast<double>(pstats.unclassified) / raw_records,
               "ratio"});

  // ---- learners and meta.revise ----------------------------------------
  const Stages::Learned learned = stages.run_learners(&tracer, served);
  {
    std::vector<double> ms;
    std::vector<double> sizes;
    for (const Build& build : learned.builds) {
      ms.push_back(build.seconds * 1e3);
      sizes.push_back(static_cast<double>(build.training));
    }
    std::sort(ms.begin(), ms.end());
    std::sort(sizes.begin(), sizes.end());
    m.push_back({"learners.build_p50_ms", percentile(ms, 0.5), "ms"});
    m.push_back({"learners.build_max_ms", ms.empty() ? 0.0 : ms.back(),
                 "ms"});
    m.push_back({"learners.association_s",
                 learned.times.association_seconds, "s"});
    m.push_back({"learners.correlation_s",
                 learned.times.correlation_seconds, "s"});
    m.push_back({"learners.statistical_s",
                 learned.times.statistical_seconds, "s"});
    m.push_back({"learners.distribution_s",
                 learned.times.distribution_seconds, "s"});
    m.push_back({"meta.revise_s", tracer.seconds("meta.revise"), "s"});
    m.push_back({"learners.train_events_p50", percentile(sizes, 0.5),
                 "count"});
  }

  // ---- predict -----------------------------------------------------------
  const Stages::Predicted predicted =
      stages.run_predict(&tracer, served, learned.builds);
  const double predict_s = tracer.seconds("predict.observe_batch");
  m.push_back({"predict.ns_per_event", ns_per(predict_s, predicted.events),
               "ns"});
  m.push_back({"predict.warnings_per_kevent",
               predicted.events
                   ? 1e3 * static_cast<double>(predicted.warnings) /
                         static_cast<double>(predicted.events)
                   : 0.0,
               "1/kevent"});

  // ---- online.serving ----------------------------------------------------
  const std::size_t serving_events =
      stages.run_serving(&tracer, served, learned.builds);
  const double serving_s = tracer.seconds("serving.observe_batch") +
                           tracer.seconds("serving.adopt");
  m.push_back({"online.serving.ns_per_event",
               ns_per(serving_s, serving_events), "ns"});

  // ---- online.engine (also the traced run's output reference) ------------
  const Stages::Engined engine = stages.run_engine(&tracer, kAll);
  const double engine_s = tracer.seconds("engine.consume") +
                          tracer.seconds("engine.consume_batch") +
                          tracer.seconds("engine.finish");
  {
    double busy = 0.0;
    double max_events = 0.0;
    double total_events = 0.0;
    for (const auto& shard : engine.shards) {
      busy += shard.busy_seconds;
      max_events = std::max(max_events, static_cast<double>(shard.events));
      total_events += static_cast<double>(shard.events);
    }
    const double n =
        static_cast<double>(std::max<std::size_t>(1, engine.shards.size()));
    m.push_back({"online.engine.ns_per_event",
                 ns_per(engine_s, inputs.items()), "ns"});
    m.push_back({"online.shard_busy_share", busy / (n * engine_s), "ratio"});
    m.push_back({"online.shard_skew",
                 total_events > 0 ? max_events / (total_events / n) : 0.0,
                 "ratio"});
  }

  // ---- net.wire ----------------------------------------------------------
  const std::uint64_t wire_bytes = stages.run_wire(&tracer, kAll);
  const double wire_s =
      tracer.seconds("net.wire.encode") + tracer.seconds("net.wire.decode");
  m.push_back({"net.wire.encode_ns_per_event",
               ns_per(tracer.seconds("net.wire.encode"), inputs.items()),
               "ns"});
  m.push_back({"net.wire.decode_ns_per_event",
               ns_per(tracer.seconds("net.wire.decode"), inputs.items()),
               "ns"});
  m.push_back({"net.wire.bytes_per_event",
               static_cast<double>(wire_bytes) /
                   static_cast<double>(inputs.items()),
               "B"});

  // ---- storage -----------------------------------------------------------
  const std::size_t stored =
      spec.durable ? served.size() : std::min(kBypassCap, served.size());
  const std::uint64_t stored_bytes =
      stages.run_storage(&tracer, head(served, stored));
  m.push_back({"storage.append_ns_per_event",
               ns_per(tracer.seconds("storage.append"), stored), "ns"});
  m.push_back({"storage.close_ms", tracer.seconds("storage.close") * 1e3,
               "ms"});
  m.push_back({"storage.bytes_per_event",
               static_cast<double>(stored_bytes) /
                   static_cast<double>(std::max<std::size_t>(1, stored)),
               "B"});

  // ---- loopback dmlfpd ---------------------------------------------------
  PassResult pass;
  {
    SpanScope stage(&tracer, "stage.loopback");
    pass = run_pass(env, spec, inputs, &tracer, stage.id());
  }
  std::vector<double> rtt_us;
  {
    SpanScope stage(&tracer, "stage.ack_rtt");
    DaemonProcess daemon(env.dmlfpd, daemon_args(env, spec), env.workdir);
    net::Client client("127.0.0.1", daemon.port());
    const auto opened = client.open_stream("rtt", net::kOpenIngest);
    for (std::size_t f = 0; f < kRttFrames; ++f) {
      const std::size_t off = f * kBatch;
      if (off >= inputs.items()) break;
      const std::size_t k = std::min(kBatch, inputs.items() - off);
      const auto start = Clock::now();
      {
        SpanScope span(&tracer, "net.ack_rtt", stage.id(), k);
        if (inputs.raw) {
          client.send_records(opened.stream_id,
                              std::span(inputs.records).subspan(off, k));
        } else {
          client.send_events(opened.stream_id,
                             std::span(inputs.events).subspan(off, k));
        }
        client.flush(opened.stream_id);
      }
      rtt_us.push_back(seconds_between(start, Clock::now()) * 1e6);
    }
    client.finish_stream(opened.stream_id);
    client.bye();
    daemon.stop();
  }
  std::sort(rtt_us.begin(), rtt_us.end());
  m.push_back({"net.ack_rtt_p50_us", percentile(rtt_us, 0.5), "us"});
  m.push_back({"net.ack_rtt_p99_us", percentile(rtt_us, 0.99), "us"});
  m.push_back({"net.retry_ratio",
               static_cast<double>(pass.retries) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, pass.frames)),
               "ratio"});
  const double daemon_s = pass.seconds - engine_s - wire_s;
  m.push_back({"net.daemon_ns_per_event", ns_per(daemon_s, inputs.items()),
               "ns"});
  {
    auto latency = pass.warn_latency_ms;
    std::sort(latency.begin(), latency.end());
    m.push_back({"e2e.warn_p50_ms", percentile(latency, 0.50), "ms"});
    m.push_back({"e2e.warn_p99_ms", percentile(latency, 0.99), "ms"});
    m.push_back({"e2e.warn_samples", static_cast<double>(latency.size()),
                 "count"});
    auto late = pass.gen_late_ms;
    std::sort(late.begin(), late.end());
    m.push_back({"gen.late_p99_ms", percentile(late, 0.99), "ms"});
    m.push_back({"gen.max_backlog", static_cast<double>(pass.max_backlog),
                 "count"});
  }

  // ---- the ledger ----------------------------------------------------------
  const auto self = tracer.self_seconds();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double preprocess_s = self_of("preprocess.push");
  const double learners_s = self_of("learners.learn");
  const double revise_s = self_of("meta.revise");
  const double predict_self = self_of("predict.observe_batch");
  const double serving_self = std::max(0.0, serving_s - predict_s);
  const double engine_self =
      std::max(0.0, engine_s - (inputs.raw ? preprocess_s : 0.0) -
                        serving_s - learners_s - revise_s);
  const double storage_s =
      self_of("storage.append") + self_of("storage.close");
  struct Row {
    const char* layer;
    double seconds;
    /// Why the row is left out of busy time; nullptr = counted.
    const char* excluded;
  };
  const char* bypassed = "bypassed: not on this workload's path";
  const std::vector<Row> rows = {
      {"preprocess", preprocess_s, inputs.raw ? nullptr : bypassed},
      {"learners", learners_s, nullptr},
      {"meta.revise", revise_s, nullptr},
      {"predict", predict_self, nullptr},
      {"online.serving", serving_self, nullptr},
      {"online.engine", engine_self, nullptr},
      // Encoding runs in the client, decoding on the daemon's reactor.
      {"net.wire.encode", self_of("net.wire.encode"), nullptr},
      {"net.wire.decode", self_of("net.wire.decode"), nullptr},
      {"net.daemon", std::max(0.0, daemon_s),
       spec.open_loop() ? "open loop: pass time is the send schedule" : nullptr},
      {"storage", storage_s, spec.durable ? nullptr : bypassed},
  };
  double busy = 0.0;
  const Row* busiest = nullptr;
  for (const Row& row : rows) {
    if (row.excluded) continue;
    busy += row.seconds;
    if (!busiest || row.seconds > busiest->seconds) busiest = &row;
  }
  std::fprintf(stderr, "\nperfbench ledger: %s (seed %llu)\n",
               spec.name.c_str(), static_cast<unsigned long long>(env.seed));
  std::fprintf(stderr, "  %-16s %12s %8s\n", "layer", "self_s", "share");
  for (const Row& row : rows) {
    std::fprintf(stderr, "  %-16s %12.6f %7.1f%%%s%s%s\n", row.layer,
                 row.seconds, row.excluded ? 0.0 : 100.0 * row.seconds / busy,
                 row.excluded ? "  (" : "", row.excluded ? row.excluded : "",
                 row.excluded ? ")" : &row == busiest ? "  <== busiest" : "");
  }

  // Tracing overhead: every in-process stage again on a prefix of the
  // input, untraced and then traced into a throwaway tracer; the median
  // over the pairs of traced over untraced wall time of all stages.
  const auto sample = head(served, kOverheadCap);
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // untraced, traced
    for (int traced = 0; traced < 2; ++traced) {
      Tracer scratch;
      Tracer* t = traced ? &scratch : nullptr;
      const auto start = Clock::now();
      stages.run_preprocess(t, kOverheadCap, nullptr);
      const Stages::Learned sample_learned = stages.run_learners(t, sample);
      stages.run_predict(t, sample, sample_learned.builds);
      stages.run_serving(t, sample, sample_learned.builds);
      stages.run_engine(t, kOverheadCap);
      stages.run_wire(t, kOverheadCap);
      stages.run_storage(t, sample);
      seconds[traced] = seconds_between(start, Clock::now());
    }
    ratios.push_back(seconds[1] / seconds[0]);
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead = percentile(ratios, 0.5) - 1.0;
  std::fprintf(stderr,
               "  tracing overhead: in-process stages on at most %zu items, "
               "traced over untraced, median of %d pairs: %+.2f%% "
               "(%+.2f%% to %+.2f%%)\n",
               kOverheadCap, kOverheadPairs, 100.0 * overhead,
               100.0 * (ratios.front() - 1.0), 100.0 * (ratios.back() - 1.0));
  m.push_back({"trace.overhead", overhead, "ratio"});
  m.push_back({"trace.busy_s", busy, "s"});

  const std::string span_file =
      env.workdir + "/spans-" + spec.name + ".json";
  if (!tracer.write_json(span_file)) {
    throw std::runtime_error("cannot write " + span_file);
  }
  std::fprintf(stderr, "  spans: %zu written to %s\n\n",
               tracer.spans().size(), span_file.c_str());

  // Output check: the loopback pass against the in-process engine.
  RunOutcome out;
  std::vector<WarningKey> expected;
  for (const auto& w : engine.warnings) expected.push_back(key_of(w));
  check_pass(spec, expected, pass, out);
  out.metrics = std::move(m);
  return out;
}

}  // namespace perfbench
