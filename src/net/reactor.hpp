// One reactor = one thread driving a level-triggered epoll loop over a
// set of adopted connections.  The reactor owns all socket I/O and the
// frame (de)coding boundary: it reads bytes, slices them into wire
// frames, and hands each frame to its ReactorHandler on the reactor
// thread; the handler replies by appending bytes to the connection's
// outbound buffer (flushed as the socket drains, EPOLLOUT-gated).
//
// Cross-thread interaction happens through exactly two doorbell paths,
// both eventfd-woken and mutex-protected:
//   adopt(fd)        move a freshly accepted socket onto this reactor
//   notify(conn_id)  ask for an on_kick() callback on the reactor
//                    thread (how pump threads and warning callbacks
//                    request "please drain this connection's outbox")
//
// Level-triggered semantics are load-bearing for fault injection: a
// `net.read` drop failpoint skips the wakeup without reading, and the
// kernel simply re-reports readability on the next epoll_wait — the
// connection survives with the frame delayed, never desynchronised.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace dml::net {

class Reactor;

/// Per-connection state, owned by (and only touched from) the reactor
/// thread.
class ReactorConnection {
 public:
  std::uint64_t id() const { return id_; }
  Reactor& reactor() const { return *reactor_; }

  /// Appends bytes to the outbound buffer and arms EPOLLOUT.
  void send(std::span<const unsigned char> bytes);
  /// Closes once the outbound buffer drains (no more frames accepted).
  void close_after_flush() { closing_ = true; }

  /// Handler-owned cookie (session pointer); the reactor never reads it.
  void set_context(void* context) { context_ = context; }
  void* context() const { return context_; }

  std::size_t pending_out() const { return out_.size() - out_offset_; }

 private:
  friend class Reactor;

  std::uint64_t id_ = 0;
  Reactor* reactor_ = nullptr;
  FdHandle fd_;
  std::vector<unsigned char> in_;
  std::vector<unsigned char> out_;
  std::size_t out_offset_ = 0;
  bool closing_ = false;
  bool want_write_ = false;
  void* context_ = nullptr;
};

/// Frame/lifecycle callbacks, all invoked on the reactor thread.
class ReactorHandler {
 public:
  virtual ~ReactorHandler() = default;

  /// One complete, CRC-valid frame.
  virtual void on_frame(ReactorConnection& conn, FrameType type,
                        std::span<const unsigned char> payload) = 0;
  /// Connection is gone (peer close, I/O error, protocol error, or
  /// failpoint).  The connection object dies after this returns.
  virtual void on_disconnect(ReactorConnection& conn,
                             const std::string& reason) = 0;
  /// A notify(conn_id) doorbell: drain whatever the other thread queued.
  virtual void on_kick(ReactorConnection& conn) = 0;
};

struct ReactorStats {
  std::uint64_t frames_received = 0;
  std::uint64_t connections_adopted = 0;
  std::uint64_t connections_closed = 0;
  /// Torn down by a net.read / net.write failpoint or I/O error.
  std::uint64_t connections_failed = 0;
  /// CPU time of the loop thread, stored as it exits (0 until stop()).
  double cpu_seconds = 0.0;
};

class Reactor {
 public:
  explicit Reactor(ReactorHandler& handler);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Starts the event-loop thread, named `name` (see
  /// common::name_this_thread).
  void start(const std::string& name);
  /// Closes every connection (with on_disconnect) and joins the thread.
  void stop();

  /// Transfers ownership of a connected socket to this reactor
  /// (thread-safe; the socket is registered on the reactor thread).
  void adopt(FdHandle fd);

  /// Requests an on_kick(conn) on the reactor thread (thread-safe; a
  /// stale id after disconnect is silently ignored).
  void notify(std::uint64_t conn_id);

  /// Snapshot of the loop counters (thread-safe).
  ReactorStats stats() const;

 private:
  struct PendingWork {
    std::vector<FdHandle> adopted;
    std::vector<std::uint64_t> kicks;
    bool stopping = false;
  };

  void run();
  void register_connection(FdHandle fd);
  void handle_readable(ReactorConnection& conn);
  void handle_writable(ReactorConnection& conn);
  /// Decodes and dispatches every complete frame in conn.in_.
  bool dispatch_frames(ReactorConnection& conn);
  void update_interest(ReactorConnection& conn);
  void teardown(std::uint64_t conn_id, const std::string& reason,
                bool failed);

  ReactorHandler& handler_;
  FdHandle epoll_;
  WakeupFd wakeup_;
  std::thread thread_;

  // Reactor-thread-owned connection table (id -> connection).  Ids come
  // from a process-wide counter: the daemon compares them across
  // reactors (ingest ownership), so per-reactor numbering would alias
  // two connections that landed on different reactors.
  std::unordered_map<std::uint64_t, std::unique_ptr<ReactorConnection>>
      connections_;

  mutable common::Mutex mutex_;
  PendingWork pending_ DML_GUARDED_BY(mutex_);
  ReactorStats stats_ DML_GUARDED_BY(mutex_);
};

}  // namespace dml::net
