// The untraced end-to-end run: passes of generated traces, each through
// a fresh dmlfpd, each checked against the in-process reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "net/client.hpp"

namespace perfbench {

namespace {

/// Throwaway set-ups per run, besides each pass's own.
constexpr int kSetups = 40;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 0.5);
}

/// Received warnings with their arrival instants.
struct Arrivals {
  std::vector<predict::Warning> warnings;
  std::vector<Clock::time_point> at;

  void add(const std::vector<net::WarningMsg>& batch, Clock::time_point now) {
    for (const net::WarningMsg& msg : batch) {
      warnings.push_back(msg.warning);
      at.push_back(now);
    }
  }
};

/// Sends the whole input on `sender`.  Closed loop (rate 0): a frame is
/// due the moment the previous send returned.  Open loop: item i is due
/// at start + i / rate, one item per frame, and everything already due
/// goes out at once however long the client window held the sender
/// back.  Returns each frame's due time.
std::vector<Clock::time_point> send_all(PassResult& r, net::Client& sender,
                                        std::uint32_t stream_id,
                                        const WorkloadSpec& spec,
                                        const Inputs& inputs, Tracer* tracer,
                                        std::uint32_t parent) {
  const std::size_t n = inputs.items();
  const std::size_t per_frame = spec.open_loop() ? 1 : kBatch;
  std::vector<Clock::time_point> due;
  due.reserve(n / per_frame + 1);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  if (spec.open_loop()) {
    for (std::size_t i = 0; i < n; ++i) {
      due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) / spec.rate)));
    }
  }
  std::size_t i = 0;
  while (i < n) {
    std::size_t k = per_frame;
    if (spec.open_loop()) {
      const auto now = Clock::now();
      k = 0;
      while (i + k < n && due[i + k] <= now) ++k;
      if (k == 0) {
        std::this_thread::sleep_until(due[i]);
        continue;
      }
      r.max_backlog = std::max(r.max_backlog, k);
    } else {
      k = std::min(k, n - i);
      due.push_back(Clock::now());
    }
    {
      SpanScope span(tracer, "net.client.send", parent, k);
      if (inputs.raw) {
        sender.send_records(stream_id,
                            std::span(inputs.records).subspan(i, k));
      } else {
        sender.send_events(stream_id, std::span(inputs.events).subspan(i, k));
      }
    }
    const auto sent = Clock::now();
    for (std::size_t f = i / per_frame; f < (i + k + per_frame - 1) / per_frame;
         ++f) {
      r.gen_late_ms.push_back(ms_between(due[f], sent));
    }
    i += k;
  }
  return due;
}

}  // namespace

std::vector<std::string> daemon_args(const Env& env,
                                     const WorkloadSpec& spec) {
  static int index = 0;  // one fresh repository per daemon
  ++index;
  std::vector<std::string> args = {"--reactors", "1", "--shards", "2"};
  args.insert(args.end(), spec.engine_args.begin(), spec.engine_args.end());
  if (spec.durable) {
    const std::string repo = env.workdir + "/repo-" + std::to_string(index);
    std::filesystem::remove_all(repo);
    args.push_back("--repo");
    args.push_back(repo);
  }
  return args;
}

double measure_setup(const Env& env, const WorkloadSpec& spec) {
  const auto spawn_at = Clock::now();
  DaemonProcess daemon(env.dmlfpd,
                       daemon_args(env, spec),
                       env.workdir);
  double setup = 0.0;
  {
    net::Client client("127.0.0.1", daemon.port());
    client.open_stream("setup", net::kOpenIngest);
    setup = seconds_between(spawn_at, Clock::now());
  }
  daemon.stop();
  return setup;
}

PassResult run_pass(const Env& env, const WorkloadSpec& spec,
                    const Inputs& inputs, Tracer* tracer,
                    std::uint32_t parent) {
  PassResult r;
  r.items = inputs.items();
  const auto spawn_at = Clock::now();
  DaemonProcess daemon(env.dmlfpd,
                       daemon_args(env, spec),
                       env.workdir);
  net::ClientConfig config;
  config.batch_events = spec.open_loop() ? 1 : kBatch;
  net::Client sender("127.0.0.1", daemon.port(), config);
  const std::uint32_t stream_id =
      sender.open_stream("bench", net::kOpenIngest).stream_id;
  r.setup_s = seconds_between(spawn_at, Clock::now());
  // The subscriber has its own connection and thread, so each warning
  // is stamped as it arrives, not when the sender next reads.
  net::Client subscriber("127.0.0.1", daemon.port());
  subscriber.open_stream("bench", net::kOpenSubscribe);

  Arrivals arrivals;
  std::exception_ptr subscriber_error;
  std::thread subscriber_thread([&] {
    try {
      while (!subscriber.finished(stream_id)) {
        auto batch = subscriber.wait_warnings();
        arrivals.add(batch, Clock::now());
      }
    } catch (...) {
      subscriber_error = std::current_exception();
    }
  });
  const auto start = Clock::now();
  std::vector<Clock::time_point> due;
  net::StreamStatsMsg stats;
  try {
    due = send_all(r, sender, stream_id, spec, inputs, tracer, parent);
    SpanScope span(tracer, "net.client.finish", parent);
    stats = sender.finish_stream(stream_id);
  } catch (...) {
    // Draining the daemon sends the subscriber FINISHED, which ends its
    // thread.
    try {
      daemon.stop();
    } catch (...) {
    }
    subscriber_thread.join();
    throw;
  }
  subscriber_thread.join();
  if (subscriber_error) std::rethrow_exception(subscriber_error);
  r.seconds = seconds_between(start, Clock::now());
  r.events_ingested = stats.events_ingested;
  r.records_rejected = stats.records_rejected;
  r.warnings_emitted = stats.warnings_emitted;
  r.warnings_dropped = subscriber.finished(stream_id)->warnings_dropped;
  r.frames = due.size();
  r.retries = sender.retries();
  const std::size_t per_frame = spec.open_loop() ? 1 : kBatch;
  for (std::size_t i = 0; i < arrivals.warnings.size(); ++i) {
    const std::size_t trigger =
        trigger_index(inputs.times, arrivals.warnings[i].issued_at);
    r.warn_latency_ms.push_back(
        ms_between(due[trigger / per_frame], arrivals.at[i]));
  }
  r.warnings = std::move(arrivals.warnings);
  r.peak_rss_mb = daemon.peak_rss_mb();
  sender.bye();
  subscriber.bye();
  daemon.stop();
  return r;
}

void check_pass(const WorkloadSpec& spec,
                const std::vector<WarningKey>& reference,
                const PassResult& pass, RunOutcome& out) {
  std::vector<WarningKey> received;
  received.reserve(pass.warnings.size());
  for (const auto& w : pass.warnings) received.push_back(key_of(w));
  std::vector<WarningKey> expected = reference;
  const MultisetDiff diff = compare_multisets(expected, received);
  const std::uint64_t rejected =
      (pass.items - std::min<std::uint64_t>(pass.items, pass.events_ingested)) +
      pass.records_rejected;
  const std::uint64_t failed =
      rejected + pass.warnings_dropped + diff.missing + diff.extra;
  out.attempted += pass.items + reference.size();
  out.failed += failed;
  if (failed > 0) {
    out.correct = false;
    std::fprintf(stderr,
                 "perfbench: %s: output check FAILED: %llu rejected items, "
                 "%llu dropped, %zu missing and %zu extra warnings against "
                 "%zu in the reference\n",
                 spec.name.c_str(), static_cast<unsigned long long>(rejected),
                 static_cast<unsigned long long>(pass.warnings_dropped),
                 diff.missing, diff.extra, reference.size());
  }
}

RunOutcome run_end_to_end(const Env& env, const WorkloadSpec& spec) {
  // Set-up is a few milliseconds, and process start-up noise only ever
  // adds to it: take the lower quartile of many, the passes' own set-ups
  // included.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(measure_setup(env, spec));

  RunOutcome out;
  std::size_t passes = 0;
  std::size_t planned = 0;  // open loop: passes that fill the window
  std::size_t items = 0;
  double seconds = 0.0;
  std::size_t max_backlog = 0;
  std::vector<double> latency;
  std::vector<double> late;
  std::vector<double> rss;
  stats::ConfusionCounts quality;
  // Every pass streams a trace of its own, so a run averages over
  // several inputs instead of repeating one.  Generating the input and
  // the output check stay outside every metric.
  while (true) {
    const Inputs inputs = make_inputs(spec, pass_seed(env.seed, passes));
    if (spec.open_loop() && passes == 0) {
      planned = static_cast<std::size_t>(std::max(
          1L, std::lround(env.seconds * spec.rate /
                          static_cast<double>(inputs.items()))));
    }
    PassResult pass = run_pass(env, spec, inputs);

    std::vector<WarningKey> reference;
    for (const auto& w : reference_warnings(spec, inputs)) {
      reference.push_back(key_of(w));
    }
    if (env.perturb && passes == 0 && !pass.warnings.empty()) {
      pass.warnings[0].deadline += 1;
    }
    check_pass(spec, reference, pass, out);
    quality += served_counts(spec, inputs, pass.warnings);
    std::fprintf(stderr,
                 "perfbench: %s pass %zu: %zu items in %.3f s (%.0f/s), "
                 "%zu warnings, set-up %.4f s\n",
                 spec.name.c_str(), passes, pass.items, pass.seconds,
                 static_cast<double>(pass.items) / pass.seconds,
                 pass.warnings.size(), pass.setup_s);

    ++passes;
    items += pass.items;
    seconds += pass.seconds;
    max_backlog = std::max(max_backlog, pass.max_backlog);
    setups.push_back(pass.setup_s);
    rss.push_back(pass.peak_rss_mb);
    latency.insert(latency.end(), pass.warn_latency_ms.begin(),
                   pass.warn_latency_ms.end());
    late.insert(late.end(), pass.gen_late_ms.begin(), pass.gen_late_ms.end());
    if (spec.open_loop() ? passes >= planned : seconds >= env.seconds) break;
  }
  std::sort(setups.begin(), setups.end());
  std::sort(latency.begin(), latency.end());
  std::sort(late.begin(), late.end());

  out.metrics = {
      {"setup_s", percentile(setups, 0.25), "s"},
      {"ingest_eps", static_cast<double>(items) / seconds, "1/s"},
      {"peak_rss_mb", median(rss), "MiB"},
      {"precision", stats::precision(quality), "ratio"},
      {"recall", stats::recall(quality), "ratio"},
  };
  // The latency tail swings more between runs than any regression bound
  // allows (README.md, "Steadiness"), so it is reported, not gated.
  // Generator lateness and backlog are harness health: how far the
  // sender ran behind its schedule.
  std::fprintf(stderr,
               "perfbench: %s: %zu pass(es), %zu items in %.3f s, %zu "
               "set-ups\n  warn latency p99 %.4f ms (n=%zu); generator late "
               "p99 %.4f ms (n=%zu); max backlog %zu events\n",
               spec.name.c_str(), passes, items, seconds, setups.size(),
               percentile(latency, 0.99), latency.size(),
               percentile(late, 0.99), late.size(), max_backlog);
  return out;
}

}  // namespace perfbench
