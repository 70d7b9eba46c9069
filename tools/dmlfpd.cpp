// dmlfpd — the failure-prediction daemon (DESIGN.md §12): serves the
// net::wire protocol over TCP, one online::ShardedEngine per named
// stream, with RETRY_AFTER admission control on ingest and bounded
// fan-out queues on warning subscribers.
//
//   dmlfpd --port 7070 --shards 4 --training-weeks 26 --retrain-weeks 4
//   dmlfpd --port 0 --port-file /tmp/dmlfpd.port --repo /data/streams
//
// Engine flags are `dmlfp run`'s, parsed by the same
// tools::driver_config_from_flags, and both front ends map the result
// through online::sharded_config_from_driver, so the same flags produce
// the same warning multiset whether a log is replayed in batch or
// streamed over the wire.
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish every
// stream (seal durable segments, engine.finish()), deliver FINISHED to
// subscribers, flush outboxes, then print the final per-stream stats
// and each thread's CPU seconds.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "net/daemon.hpp"
#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "support/flags.hpp"

namespace {

using namespace dml;
using tools::Flags;

int usage() {
  std::fprintf(
      stderr,
      "usage: dmlfpd [flags]\n"
      "  --bind ADDR            listen address (default 127.0.0.1)\n"
      "  --port 0..65535        listen port; 0 = kernel-assigned (default)\n"
      "  --port-file FILE       write the bound port to FILE once listening\n"
      "  --reactors 1..1024     epoll reactor threads (default 2)\n"
      "  --shards 0..1024       engine shards per stream (0 = hardware)\n"
      "  --repo DIR             durable ingest: segmented per-stream\n"
      "                         repositories under DIR/<stream>\n"
      "  --config FILE          driver config base (same file as dmlfp run);\n"
      "                         an engine flag takes its key's values\n"
      "  --window 1..604800     prediction window Wp, seconds (default 300)\n"
      "  --training-weeks 1..520  initial training span (default 26)\n"
      "  --retrain-weeks 1..520 retraining cadence Wr (default 4)\n"
      "  --mode sliding|whole|static\n"
      "  --no-reviser           disable the rule reviser\n"
      "  --correlation | --no-correlation\n"
      "                         enable/disable the correlation-chain\n"
      "                         learner (overrides --config)\n"
      "  --correlation-window 1..86400  graph adjacency window, seconds\n"
      "  --correlation-min-edge 0..1    min per-edge confidence\n"
      "  --queue-frames 1..2^20 reactor->pump admission queue (default 64)\n"
      "  --subscriber-queue 1..2^24  per-subscriber warning queue\n"
      "                         (default 65536)\n"
      "  --failpoint NAME=SPEC[,...]   fault injection (net.accept,\n"
      "                         net.read, net.write, storage.*, ...)\n"
      "  --failpoint-seed S>=0  RNG seed for probabilistic faults\n"
      "A refused INGEST frame's RETRY_AFTER asks for a fixed 2 ms pause\n"
      "(the --retry-ms flag is gone).\n"
      "SIGTERM/SIGINT drain gracefully: streams finish, durable segments\n"
      "seal, subscribers get FINISHED, then a stats report prints; a\n"
      "stream whose pump failed is marked [failed: <cause>].\n");
  return 2;
}

void print_stats(const net::DaemonStats& stats) {
  std::printf(
      "dmlfpd: %llu accept(s) (%llu failed), %llu frame(s), "
      "%llu connection(s) adopted, %llu closed, %llu failed\n",
      static_cast<unsigned long long>(stats.accepts),
      static_cast<unsigned long long>(stats.accepts_failed),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.connections_adopted),
      static_cast<unsigned long long>(stats.connections_closed),
      static_cast<unsigned long long>(stats.connections_failed));
  for (const auto& s : stats.streams) {
    const auto failure = stats.stream_failures.find(s.stream_id);
    const std::string failed =
        failure == stats.stream_failures.end()
            ? std::string()
            : " [failed: " + failure->second + "]";
    std::printf(
        "  stream %u: ingested %llu, served %llu, rejected %llu, "
        "warnings %llu (+%llu dropped), retrainings %llu, refused %llu%s%s\n",
        s.stream_id, static_cast<unsigned long long>(s.events_ingested),
        static_cast<unsigned long long>(s.events_served),
        static_cast<unsigned long long>(s.records_rejected),
        static_cast<unsigned long long>(s.warnings_emitted),
        static_cast<unsigned long long>(s.warnings_dropped),
        static_cast<unsigned long long>(s.retrainings),
        static_cast<unsigned long long>(s.batches_refused),
        s.finished ? "" : " [unfinished]", failed.c_str());
  }
  for (const auto& t : stats.threads) {
    if (t.stream_id != 0) {
      std::printf("  thread %s (stream %u): %.3f cpu-s\n", t.name.c_str(),
                  t.stream_id, t.cpu_seconds);
    } else {
      std::printf("  thread %s: %.3f cpu-s\n", t.name.c_str(),
                  t.cpu_seconds);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, 1);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "dmlfpd: %s\n", flags.error().c_str());
    return usage();
  }
  if (flags.has("help")) return usage();
  constexpr std::string_view kFlags[] = {
      "bind", "port", "port-file", "reactors", "queue-frames",
      "subscriber-queue", "repo", "shards"};
  if (!flags.all_known("dmlfpd", {kFlags, tools::kEngineFlags,
                                  tools::kFailpointFlags})) {
    return 2;
  }
  if (!tools::arm_failpoints(flags, "dmlfpd")) return 2;

  online::DriverConfig driver;
  if (tools::driver_config_from_flags(flags, "dmlfpd", driver) != 0) {
    return 2;
  }

  net::DaemonConfig config;
  unsigned port = 0;
  std::size_t shards = 0;
  if (!flags.read("dmlfpd", "port", port, 0, 65535) ||
      !flags.read("dmlfpd", "reactors", config.reactors, 1, 1024) ||
      !flags.read("dmlfpd", "shards", shards, 0, 1024) ||
      !flags.read("dmlfpd", "queue-frames", config.ingest_queue_frames, 1,
                  1 << 20) ||
      !flags.read("dmlfpd", "subscriber-queue",
                  config.subscriber_queue_warnings, 1, 1 << 24)) {
    return 2;
  }
  config.bind_address = flags.get_or("bind", config.bind_address);
  config.port = static_cast<std::uint16_t>(port);
  config.repo_dir = flags.get_or("repo", "");
  config.engine = online::sharded_config_from_driver(driver, shards);

  // Block the shutdown signals before any thread exists, so the
  // daemon's threads inherit the mask and sigwait below is the only
  // consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  net::Daemon daemon(config);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmlfpd: %s\n", e.what());
    return 1;
  }

  std::printf("dmlfpd: listening on %s:%u\n", config.bind_address.c_str(),
              static_cast<unsigned>(daemon.port()));
  std::fflush(stdout);
  if (const auto port_file = flags.get("port-file")) {
    std::ofstream out(*port_file, std::ios::trunc);
    out << daemon.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "dmlfpd: cannot write %s\n", port_file->c_str());
      daemon.stop();
      return 1;
    }
  }

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::fprintf(stderr, "dmlfpd: %s received, draining\n",
               signal_number == SIGTERM ? "SIGTERM" : "SIGINT");

  daemon.request_drain();
  const net::DaemonStats stats = daemon.wait();
  print_stats(stats);
  return 0;
}
