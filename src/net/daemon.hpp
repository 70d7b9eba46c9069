// dmlfpd's core: a multi-tenant failure-prediction daemon speaking the
// net::wire protocol (DESIGN.md §12).
//
// Threading model
//   acceptor          one thread; accepts and hands sockets to reactors
//                     round-robin (net.accept failpoint here)
//   reactors          N epoll threads (net/reactor.hpp); all protocol
//                     parsing and admission decisions happen here and
//                     never block
//   stream pumps      one thread per open stream; pops admitted batches
//                     from the stream's bounded queue and feeds its
//                     online::ShardedEngine (the only caller of
//                     consume(), so engine backpressure stalls the
//                     pump, never a reactor)
//
// Admission control: each stream has a bounded frame queue between the
// reactor and the pump.  A reactor admits an INGEST frame with try-push
// semantics — full queue or unexpected sequence number means an
// immediate RETRY_AFTER reply, so a slow engine surfaces to clients as
// explicit backpressure instead of TCP stalls.  Subscribers get the
// mirror-image treatment: warnings queue per subscriber with a bounded
// deque; a slow subscriber overflows its own queue (counted in
// warnings_dropped) and never stalls ingest or other subscribers.
//
// Streams are named; ingest ownership is exclusive but transferable:
// when the owning connection dies, the stream (and its engine state)
// stays, and the next OPEN_STREAM for the name resumes at the
// acknowledged sequence number (STREAM_OPENED.next_seq).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "online/sharded_engine.hpp"
#include "storage/log_writer.hpp"

namespace dml::net {

struct DaemonConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned (the test fixture asks and reads port()).
  std::uint16_t port = 0;
  std::size_t reactors = 2;
  /// Per-stream engine template (a failed shard degrades its stream;
  /// the daemon survives).
  online::ShardedEngineConfig engine;
  /// Bounded reactor->pump queue, in INGEST frames.
  std::size_t ingest_queue_frames = 64;
  /// Bounded per-subscriber warning queue; overflow is counted, not
  /// blocking.  The reactor empties it on every kick (a slow client
  /// backs up the connection's outbox instead), so it fills only while
  /// the reactor lags: 65536 warnings is about 170 ms of a 3.8M
  /// events/s stream's warnings, 3 MiB at most.
  std::size_t subscriber_queue_warnings = 65536;
  /// Durable ingest: each stream appends admitted events to a
  /// storage::LogWriter repository under `<repo_dir>/<stream name>`
  /// before serving them.  Empty = volatile.  Under a repository root
  /// a stream name must be one plain path component (no '/', NUL, "."
  /// or ".."), and a name whose directory already holds a repository is
  /// refused: resuming a persisted stream is not supported.
  std::string repo_dir;
};

/// CPU time one of the daemon's threads used, read by the thread itself
/// as the last thing it does (common::thread_cpu_seconds).
struct ThreadCpuStats {
  /// Its name (common::name_this_thread): dml-reactor-N, dml-accept,
  /// dml-pump-<stream id> or dml-shard-N.
  std::string name;
  /// The stream a pump or shard worker served; 0 for the others.
  std::uint32_t stream_id = 0;
  double cpu_seconds = 0.0;
};

struct DaemonStats {
  std::uint64_t accepts = 0;
  /// Connections refused/killed by the net.accept failpoint or a
  /// failing accept(2).
  std::uint64_t accepts_failed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t connections_adopted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_failed = 0;
  /// Final per-stream accounting, one entry per stream ever opened.
  std::vector<StreamStatsMsg> streams;
  /// Why each failed stream stopped (the first throw out of its pump),
  /// by stream id; a stream that ran clean has no entry.
  std::map<std::uint32_t, std::string> stream_failures;
  /// Every reactor, the acceptor, then per stream (by id) its pump and
  /// shard workers.  Filled by wait(), once they have all exited; empty
  /// in stats().
  std::vector<ThreadCpuStats> threads;
};

class Daemon : private ReactorHandler {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, spawns reactors and the acceptor.  Throws on bind failure.
  void start();

  /// Bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, finish every stream (flush durable
  /// segments, engine.finish()), deliver FINISHED to subscribers, close
  /// connections once their outboxes flush.  Idempotent, thread- and
  /// signal-context-safe entry (sets a flag; the heavy lifting happens
  /// in wait()).
  void request_drain();

  /// Blocks until drained (request_drain() implied), then returns the
  /// final aggregate stats, each thread's CPU time included.  Call from
  /// the owning thread.
  DaemonStats wait();

  /// request_drain() + wait().
  DaemonStats stop();

  /// Live aggregate counters (streams carry daemon-side counters only
  /// until they finish; engine-side fields fill in at finish).
  DaemonStats stats() const;

 private:
  struct Subscriber;
  struct Stream;
  struct Session;
  struct Ingest;

  // ReactorHandler (reactor threads).
  void on_frame(ReactorConnection& conn, FrameType type,
                std::span<const unsigned char> payload) override;
  void on_disconnect(ReactorConnection& conn,
                     const std::string& reason) override;
  void on_kick(ReactorConnection& conn) override;

  void accept_loop();
  Reactor& next_reactor();

  Session& session_of(ReactorConnection& conn);
  void send_error(ReactorConnection& conn, ErrorCode code,
                  std::uint32_t stream_id, const std::string& message,
                  bool fatal);

  void handle_open_stream(ReactorConnection& conn, Session& session,
                          const OpenStreamMsg& msg);
  void handle_ingest(ReactorConnection& conn, Session& session,
                     Ingest ingest);
  void handle_finish(ReactorConnection& conn, Session& session,
                     const FinishStreamMsg& msg);
  void handle_stats(ReactorConnection& conn, const StatsMsg& msg);

  /// Builds a stream whole (durable log, engine, pump) and registers
  /// it; throws, registering nothing, when its repository cannot be
  /// created.  Holding the registry lock, racing openers of one name
  /// build it once.
  std::shared_ptr<Stream> create_stream(const std::string& name)
      DML_REQUIRES(streams_mutex_);
  std::shared_ptr<Stream> find_stream(std::uint32_t id) const;
  /// Daemon-side live counters merged with engine finals when done.
  StreamStatsMsg snapshot_stream_stats(Stream& stream) const;
  void pump_main(std::shared_ptr<Stream> stream);

  DaemonConfig config_;
  std::uint16_t port_ = 0;
  FdHandle listen_fd_;
  WakeupFd acceptor_wakeup_;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> next_reactor_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> accepts_{0};
  std::atomic<std::uint64_t> accepts_failed_{0};
  /// Written by the acceptor as it exits; read after joining it.
  double acceptor_cpu_seconds_ = 0.0;

  mutable common::Mutex streams_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Stream>> streams_by_name_
      DML_GUARDED_BY(streams_mutex_);
  std::unordered_map<std::uint32_t, std::shared_ptr<Stream>> streams_by_id_
      DML_GUARDED_BY(streams_mutex_);
  std::uint32_t next_stream_id_ DML_GUARDED_BY(streams_mutex_) = 1;
};

}  // namespace dml::net
