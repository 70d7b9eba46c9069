// Shared declarations of the dmlfpd benchmark (perfbench/README.md):
// workload specs and inputs, the daemon child process, the traced-run
// span recorder, the in-process reference, and the small statistics
// helpers the self test pins on fixed inputs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bgl/record.hpp"
#include "net/client.hpp"
#include "online/driver.hpp"
#include "predict/predictor.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

using namespace dml;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Workloads and inputs ------------------------------------------------

/// Items per INGEST frame on the closed loop, and per batch call in the
/// traced stages and the reference: the client's default.
inline constexpr std::size_t kBatch = net::ClientConfig{}.batch_events;

/// One workload as perfbench/workloads.json defines it; run.py passes
/// each field as a flag.
struct WorkloadSpec {
  std::string name;
  /// "raw": the ANL raw log (INGEST_RECORDS); "events": categorized
  /// unique events (INGEST_EVENTS).
  std::string input = "events";
  /// ANL-profile weeks generated.
  int weeks = 112;
  /// Events only: tile the trace forward in time until it holds at
  /// least this many events (0 = no tiling).
  std::size_t tile_to = 0;
  /// Open-loop send rate, events/s; 0 = closed loop.
  double rate = 0.0;
  /// Engine flags, passed verbatim to dmlfpd and mapped onto the
  /// reference engine's DriverConfig (--training-weeks, --retrain-weeks,
  /// --mode, --window, --config).
  std::vector<std::string> engine_args;
  /// dmlfpd --repo on a fresh directory per pass.
  bool durable = false;

  bool raw() const { return input == "raw"; }
  bool open_loop() const { return rate > 0.0; }
};

struct Inputs {
  /// Raw workloads: the record stream the daemon receives.
  std::vector<bgl::RasRecord> records;
  /// Event workloads: the stream the daemon receives.  Raw workloads:
  /// the generator's ground-truth unique events (precision/recall truth).
  std::vector<bgl::Event> events;
  /// Time of every item the daemon receives, in send order.
  std::vector<TimeSec> times;
  bool raw = false;

  std::size_t items() const { return times.size(); }
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Generator seed of pass `pass` of a run with `--seed seed`: each pass
/// streams its own trace, and runs with different seeds share none.
inline std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return seed * 1000 + pass;
}

/// The workload's engine flags as dmlfpd maps them (config file first,
/// explicit flags override, clock tick follows the window).
online::DriverConfig driver_config(const WorkloadSpec& spec);

/// Renders events one raw record each, so the preprocess stage of the
/// traced run has input on event workloads too.
std::vector<bgl::RasRecord> render_records(std::span<const bgl::Event> events);

// ---- Warnings and statistics ---------------------------------------------

/// Every field of a warning, as the output check compares them.
using WarningKey = std::tuple<TimeSec, TimeSec, int, std::uint32_t,
                              std::uint64_t, int>;
WarningKey key_of(const predict::Warning& warning);

/// Nearest-rank percentile of an ascending-sorted sample (p in [0, 1]).
double percentile(std::span<const double> sorted, double p);

/// Index of the warning's trigger: the first item whose time is at or
/// after issued_at (clamped to the last item).  Tick warnings map the
/// same way: the tick at T fires on the first later event, and the first
/// item at or after T was sent no later than that event.
std::size_t trigger_index(std::span<const TimeSec> item_times,
                          TimeSec issued_at);

struct MultisetDiff {
  std::size_t missing = 0;  // in the reference, not received
  std::size_t extra = 0;    // received, not in the reference
};
/// Both inputs are sorted in place.
MultisetDiff compare_multisets(std::vector<WarningKey>& reference,
                               std::vector<WarningKey>& received);

// ---- The daemon as a child process ---------------------------------------

class DaemonProcess {
 public:
  /// Spawns dmlfpd with `args` plus --port 0 --port-file, stdout and
  /// stderr to a log under `workdir`, and waits until the port is bound.
  DaemonProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& workdir);
  /// stop()s if still running.
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  std::uint16_t port() const { return port_; }
  /// The daemon's VmHWM, MiB.
  double peak_rss_mb() const;
  /// SIGTERM (graceful drain), then waits for exit.  Throws when the
  /// daemon exits unsuccessfully.
  void stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string log_path_;
};

// ---- Traced-run spans ----------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t items;
  };

  Tracer();
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint64_t items = 0);
  void end(std::uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations of the spans named `name`, seconds.
  double seconds(const char* name) const;
  /// Self time of every span: duration minus the union of its
  /// children's intervals, summed per span name (seconds).
  std::map<std::string, double> self_seconds() const;
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint32_t parent = 0,
            std::uint64_t items = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent, items) : 0) {}
  ~SpanScope() {
    if (tracer_) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// ---- Runs ----------------------------------------------------------------

struct Env {
  std::string dmlfpd;   // daemon binary
  std::string workdir;  // scratch inside the checkout
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Self-test hook: alter one received warning before the check.
  bool perturb = false;
};

/// What one pass of a workload's input through a fresh daemon measured.
struct PassResult {
  double setup_s = 0.0;
  double seconds = 0.0;  // first send to last warning received
  std::size_t items = 0;
  std::vector<predict::Warning> warnings;
  std::vector<double> warn_latency_ms;
  std::vector<double> gen_late_ms;
  std::size_t max_backlog = 0;
  std::uint64_t events_ingested = 0;
  std::uint64_t records_rejected = 0;
  std::uint64_t warnings_emitted = 0;
  std::uint64_t warnings_dropped = 0;
  std::uint64_t frames = 0;
  std::uint64_t retries = 0;
  double peak_rss_mb = 0.0;
};

/// Spawns a daemon configured for the workload, streams the whole input
/// once, collects every warning, stops the daemon.  Spans go to `tracer`
/// when given (parent `parent`).
PassResult run_pass(const Env& env, const WorkloadSpec& spec,
                    const Inputs& inputs, Tracer* tracer = nullptr,
                    std::uint32_t parent = 0);

/// Spawn-to-stream-open time of one throwaway daemon, seconds.
double measure_setup(const Env& env, const WorkloadSpec& spec);

/// dmlfpd's command line for the workload (without port flags).
std::vector<std::string> daemon_args(const Env& env,
                                     const WorkloadSpec& spec);

/// In-process ShardedEngine fed the same input and config.
std::vector<predict::Warning> reference_warnings(const WorkloadSpec& spec,
                                                 const Inputs& inputs);

/// The paper's confusion counts of `warnings` against the fatal events
/// of the served span (from the first training boundary on).
stats::ConfusionCounts served_counts(const WorkloadSpec& spec,
                                     const Inputs& inputs,
                                     std::vector<predict::Warning> warnings);

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The output check of one pass: its warning multiset against the
/// reference's, plus rejected items and dropped warnings, added to
/// `out`'s attempted/failed accounting.
void check_pass(const WorkloadSpec& spec,
                const std::vector<WarningKey>& reference,
                const PassResult& pass, RunOutcome& out);

RunOutcome run_end_to_end(const Env& env, const WorkloadSpec& spec);
RunOutcome run_traced(const Env& env, const WorkloadSpec& spec,
                      const Inputs& inputs);

/// Fixed-input checks of the percentile helper, the trigger mapping and
/// the multiset comparison; returns the number of failures.
int self_test();

}  // namespace perfbench
