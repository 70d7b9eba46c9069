#include "net/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/thread_name.hpp"
#include "logio/binary_format.hpp"

namespace dml::net {
namespace {

/// Whether `name` is one plain path component.  Under --repo a stream
/// name names the stream's repository directory, so it must not climb
/// out of the repository root or into a subdirectory.
bool plain_path_component(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find_first_of(std::string_view("/\0", 2)) ==
             std::string_view::npos;
}

/// The pump keeps each reused record's ENTRY_DATA buffer from one frame
/// to the next only up to this size, so entries near kMaxEntryData
/// cannot pin a megabyte per record slot.
constexpr std::size_t kRetainedEntryBytes = 256;

/// Reads one checked INGEST_RECORDS payload's record frames into the
/// front of `records`, growing it as needed; returns how many.  Each
/// element keeps its ENTRY_DATA capacity, so a steady stream reads
/// without allocating.
std::size_t read_records(std::span<const unsigned char> frames,
                         std::vector<bgl::RasRecord>& records) {
  std::size_t n = 0;
  for (std::size_t at = 0; at < frames.size(); ++n) {
    if (n == records.size()) records.emplace_back();
    at += logio::read_record_frame(frames.data() + at, &records[n]);
  }
  return n;
}

/// RETRY_AFTER.retry_ms: how long a refused client pauses before it
/// resends.
constexpr std::uint32_t kRetryPauseMs = 2;

/// The ERROR frame that answers a failed stream's INGEST_* and
/// FINISH_STREAM frames and its FINISH waiters: it carries the cause the
/// pump caught.  The stream takes no more ingest, as an unknown one.
std::vector<unsigned char> failure_frame(std::uint32_t stream_id,
                                         const std::string& cause) {
  std::vector<unsigned char> out;
  append_error(out, ErrorMsg{ErrorCode::kUnknownStream, stream_id,
                             "stream failed: " + cause});
  return out;
}

/// One unit of admitted ingest work handed from a reactor to a stream
/// pump.  A `finish` sentinel closes the stream after everything ahead
/// of it is served.
struct Batch {
  std::vector<bgl::Event> events;
  /// One INGEST_RECORDS frame's record frames, already checked by
  /// net::check_ingest_records; the pump reads them one at a time.
  std::vector<unsigned char> record_frames;
  bool finish = false;
};

}  // namespace

/// An INGEST frame the reactor has decoded (events) or checked (raw
/// records): the work for the pump and what admission tests of it.
struct Daemon::Ingest {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  /// Events or records in the frame.
  std::size_t count = 0;
  TimeSec first_time = 0;
  TimeSec last_time = 0;
  /// Times never decrease within the frame.
  bool ordered = true;
  Batch batch;
};

/// One subscription: the bounded warning queue between a stream's
/// engine callback and a subscriber connection.  The callback side
/// (engine merger thread) only try-pushes and counts overflow; the
/// reactor side drains on kick.
struct Daemon::Subscriber {
  Reactor* reactor = nullptr;
  std::uint64_t conn_id = 0;
  std::uint32_t stream_id = 0;
  std::size_t cap = 0;

  common::Mutex out_mutex;
  std::deque<predict::Warning> warnings DML_GUARDED_BY(out_mutex);
  std::uint64_t dropped DML_GUARDED_BY(out_mutex) = 0;
  /// Stream drained; FINISHED goes out after the queue empties.
  bool finished DML_GUARDED_BY(out_mutex) = false;
  StreamStatsMsg final_stats DML_GUARDED_BY(out_mutex);
  /// Connection gone; stop queueing and notifying.
  bool detached DML_GUARDED_BY(out_mutex) = false;

  /// Engine-callback side.  Returns true when the reactor should be
  /// kicked (queue went non-empty or FINISHED became deliverable).
  bool push(const predict::Warning& warning) DML_EXCLUDES(out_mutex) {
    common::MutexLock lock(out_mutex);
    if (detached) return false;
    if (warnings.size() >= cap) {
      ++dropped;
      return false;
    }
    warnings.push_back(warning);
    return warnings.size() == 1;
  }
};

/// One logical machine stream: its engine, durable log, bounded
/// admission queue and subscriber fan-out.
struct Daemon::Stream {
  std::uint32_t id = 0;
  std::string name;

  // Pump-owned (constructed before the pump starts).
  std::unique_ptr<storage::LogWriter> writer;
  std::unique_ptr<storage::CanonicalAppender> appender;
  std::unique_ptr<online::ShardedEngine> engine;
  std::thread pump;

  /// Warnings emitted by the engine (callback-side counter; the only
  /// engine-derived figure available before finish()).
  std::atomic<std::uint64_t> warnings_emitted{0};
  /// Written by the pump as it exits; read after joining it.
  double pump_cpu_seconds = 0.0;

  common::Mutex state_mutex;
  common::CondVar cv;
  std::deque<Batch> queue DML_GUARDED_BY(state_mutex);
  std::uint64_t expected_seq DML_GUARDED_BY(state_mutex) = 0;
  TimeSec last_event_time DML_GUARDED_BY(state_mutex) = 0;
  /// Reactor connection currently owning ingest; 0 = claimable.
  std::uint64_t owner_conn DML_GUARDED_BY(state_mutex) = 0;
  bool finishing DML_GUARDED_BY(state_mutex) = false;
  bool finished DML_GUARDED_BY(state_mutex) = false;
  /// Why the pump failed: the first throw out of serving or finishing
  /// the stream; empty while it runs clean.  Once set, admitted frames
  /// behind it are never served, and failure_frame() answers the
  /// stream's INGEST_* and FINISH_STREAM.
  std::string failure DML_GUARDED_BY(state_mutex);
  std::uint64_t events_ingested DML_GUARDED_BY(state_mutex) = 0;
  std::uint64_t batches_refused DML_GUARDED_BY(state_mutex) = 0;
  StreamStatsMsg final_stats DML_GUARDED_BY(state_mutex);
  /// FINISH_STREAM repliers: pre-encoded FINISHED goes to these
  /// mailboxes when the pump completes.
  struct FinishWaiter {
    Reactor* reactor = nullptr;
    std::uint64_t conn_id = 0;
    std::shared_ptr<Session> session;
  };
  std::vector<FinishWaiter> finish_waiters DML_GUARDED_BY(state_mutex);

  /// Fan-out lock; Subscriber::out_mutex nests inside it (on_warning,
  /// pump_main), never the other way around.
  common::Mutex sub_mutex DML_ACQUIRED_BEFORE("out_mutex");
  std::vector<std::shared_ptr<Subscriber>> subscribers
      DML_GUARDED_BY(sub_mutex);

  /// Engine warning callback (merger thread, must stay cheap): fan out
  /// to every subscriber queue, kicking reactors only on empty->
  /// non-empty transitions.
  void on_warning(const predict::Warning& warning) {
    warnings_emitted.fetch_add(1, std::memory_order_relaxed);
    common::MutexLock lock(sub_mutex);
    for (const auto& sub : subscribers) {
      if (sub->push(warning)) sub->reactor->notify(sub->conn_id);
    }
  }
};

/// Per-connection protocol state, owned by the reactor thread via
/// ReactorConnection::context().  The mailbox half is shared with pump
/// threads (pre-encoded control frames delivered via notify()).
struct Daemon::Session {
  std::uint64_t conn_id = 0;
  Reactor* reactor = nullptr;
  bool hello_done = false;

  /// Streams this connection owns ingest for.
  std::unordered_map<std::uint32_t, std::shared_ptr<Stream>> ingest;
  /// Streams this connection subscribed to.
  std::unordered_map<std::uint32_t, std::shared_ptr<Subscriber>>
      subscriptions;

  common::Mutex mail_mutex;
  std::vector<unsigned char> control DML_GUARDED_BY(mail_mutex);

  /// Pump-thread side: queue pre-encoded frames for the reactor.
  void post_control(std::span<const unsigned char> bytes)
      DML_EXCLUDES(mail_mutex) {
    common::MutexLock lock(mail_mutex);
    control.insert(control.end(), bytes.begin(), bytes.end());
  }
};

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {
  DML_CHECK_MSG(config_.reactors > 0, "daemon needs at least one reactor");
  DML_CHECK_MSG(config_.ingest_queue_frames > 0,
                "ingest queue must admit at least one frame");
}

Daemon::~Daemon() {
  if (!stopped_.load()) stop();
}

void Daemon::start() {
  auto [fd, port] = listen_tcp(config_.bind_address, config_.port);
  listen_fd_ = std::move(fd);
  port_ = port;
  set_nonblocking(listen_fd_.get());
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    // Plain new: the Daemon-to-handler conversion crosses a private
    // base, which make_unique (outside the class) cannot perform.
    reactors_.emplace_back(new Reactor(*this));
    reactors_.back()->start("dml-reactor-" + std::to_string(i));
  }
  acceptor_ = std::thread([this] {
    common::name_this_thread("dml-accept");
    accept_loop();
    acceptor_cpu_seconds_ = common::thread_cpu_seconds();
  });
}

Reactor& Daemon::next_reactor() {
  const std::size_t i =
      next_reactor_.fetch_add(1, std::memory_order_relaxed);
  return *reactors_[i % reactors_.size()];
}

void Daemon::accept_loop() {
  pollfd fds[2];
  fds[0] = {listen_fd_.get(), POLLIN, 0};
  fds[1] = {acceptor_wakeup_.fd(), POLLIN, 0};
  while (!draining_.load(std::memory_order_acquire)) {
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) acceptor_wakeup_.drain();
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      FdHandle client(::accept4(listen_fd_.get(), nullptr, nullptr,
                                SOCK_CLOEXEC));
      if (!client.valid()) break;  // EAGAIN or transient failure
      accepts_.fetch_add(1, std::memory_order_relaxed);
      bool refuse = false;
      try {
        const common::FailAction action =
            common::failpoint(common::failpoints::kNetAccept);
        refuse = action == common::FailAction::kDrop ||
                 action == common::FailAction::kCorrupt;
      } catch (const common::FailpointError&) {
        refuse = true;
      }
      if (refuse) {
        accepts_failed_.fetch_add(1, std::memory_order_relaxed);
        continue;  // FdHandle closes: the peer sees a reset
      }
      next_reactor().adopt(std::move(client));
    }
  }
}

// ---- Reactor-thread protocol handling ------------------------------------

Daemon::Session& DML_REACTOR_CONTEXT Daemon::session_of(
    ReactorConnection& conn) {
  if (conn.context() == nullptr) {
    // Ownership: the shared_ptr lives as a heap cell referenced from
    // the connection context; pumps hold weak copies via finish
    // waiters.  Freed in on_disconnect.
    auto* cell = new std::shared_ptr<Session>(std::make_shared<Session>());
    (*cell)->conn_id = conn.id();
    (*cell)->reactor = &conn.reactor();
    conn.set_context(cell);
  }
  return **static_cast<std::shared_ptr<Session>*>(conn.context());
}

void DML_REACTOR_CONTEXT Daemon::send_error(ReactorConnection& conn,
                                            ErrorCode code,
                        std::uint32_t stream_id, const std::string& message,
                        bool fatal) {
  std::vector<unsigned char> out;
  append_error(out, ErrorMsg{code, stream_id, message});
  conn.send(out);
  if (fatal) conn.close_after_flush();
}

void DML_REACTOR_CONTEXT Daemon::on_frame(ReactorConnection& conn,
                                          FrameType type,
                      std::span<const unsigned char> payload) {
  Session& session = session_of(conn);

  if (!session.hello_done) {
    if (type != FrameType::kHello) {
      send_error(conn, ErrorCode::kProtocol, 0, "expected HELLO first",
                 /*fatal=*/true);
      return;
    }
    const auto hello = decode_hello(payload);
    if (!hello || hello->version != kProtocolVersion) {
      send_error(conn, ErrorCode::kProtocol, 0, "unsupported version",
                 /*fatal=*/true);
      return;
    }
    session.hello_done = true;
    std::vector<unsigned char> out;
    append_hello_ack(out, HelloMsg{});
    conn.send(out);
    return;
  }

  switch (type) {
    case FrameType::kOpenStream: {
      const auto msg = decode_open_stream(payload);
      if (!msg) {
        send_error(conn, ErrorCode::kProtocol, 0, "bad OPEN_STREAM",
                   /*fatal=*/true);
        return;
      }
      handle_open_stream(conn, session, *msg);
      return;
    }
    case FrameType::kIngestEvents: {
      auto msg = decode_ingest_events(payload);
      if (!msg) {
        send_error(conn, ErrorCode::kProtocol, 0, "bad INGEST_EVENTS",
                   /*fatal=*/true);
        return;
      }
      Ingest ingest;
      ingest.stream_id = msg->stream_id;
      ingest.seq = msg->seq;
      ingest.count = msg->events.size();
      if (!msg->events.empty()) {
        ingest.first_time = msg->events.front().time;
        ingest.last_time = ingest.first_time;
        for (const bgl::Event& event : msg->events) {
          if (event.time < ingest.last_time) ingest.ordered = false;
          ingest.last_time = event.time;
        }
      }
      ingest.batch.events = std::move(msg->events);
      handle_ingest(conn, session, std::move(ingest));
      return;
    }
    case FrameType::kIngestRecords: {
      const auto msg = check_ingest_records(payload);
      if (!msg) {
        send_error(conn, ErrorCode::kProtocol, 0, "bad INGEST_RECORDS",
                   /*fatal=*/true);
        return;
      }
      Ingest ingest;
      ingest.stream_id = msg->stream_id;
      ingest.seq = msg->seq;
      ingest.count = msg->count;
      ingest.first_time = msg->first_time;
      ingest.last_time = msg->last_time;
      ingest.ordered = msg->ordered;
      ingest.batch.record_frames.assign(msg->frames.begin(),
                                        msg->frames.end());
      handle_ingest(conn, session, std::move(ingest));
      return;
    }
    case FrameType::kFinishStream: {
      const auto msg = decode_finish_stream(payload);
      if (!msg) {
        send_error(conn, ErrorCode::kProtocol, 0, "bad FINISH_STREAM",
                   /*fatal=*/true);
        return;
      }
      handle_finish(conn, session, *msg);
      return;
    }
    case FrameType::kStats: {
      const auto msg = decode_stats(payload);
      if (!msg) {
        send_error(conn, ErrorCode::kProtocol, 0, "bad STATS",
                   /*fatal=*/true);
        return;
      }
      handle_stats(conn, *msg);
      return;
    }
    case FrameType::kBye:
      conn.close_after_flush();
      return;
    default:
      send_error(conn, ErrorCode::kProtocol, 0,
                 std::string("unexpected frame ") +
                     std::string(to_string(type)),
                 /*fatal=*/true);
      return;
  }
}

void DML_REACTOR_CONTEXT Daemon::handle_open_stream(ReactorConnection& conn,
                                                    Session& session,
                                const OpenStreamMsg& msg) {
  if (draining_.load(std::memory_order_acquire)) {
    send_error(conn, ErrorCode::kDraining, 0, "daemon draining",
               /*fatal=*/false);
    return;
  }

  if (!config_.repo_dir.empty() && !plain_path_component(msg.name)) {
    send_error(conn, ErrorCode::kProtocol, 0,
               "under --repo a stream name must be one plain path component",
               /*fatal=*/false);
    return;
  }

  std::shared_ptr<Stream> stream;
  try {
    common::MutexLock lock(streams_mutex_);
    auto it = streams_by_name_.find(msg.name);
    stream = it != streams_by_name_.end() ? it->second
                                          : create_stream(msg.name);
  } catch (const std::exception& e) {
    // Nothing was registered.  Typically <repo>/<name> already holds a
    // repository: a previous run's persisted stream.
    send_error(conn, ErrorCode::kStreamBusy, 0, e.what(), /*fatal=*/false);
    return;
  }

  {
    common::MutexLock lock(stream->state_mutex);
    if (stream->finished || stream->finishing) {
      send_error(conn, ErrorCode::kUnknownStream, stream->id,
                 "stream already finished", /*fatal=*/false);
      return;
    }
    if ((msg.flags & kOpenIngest) != 0) {
      if (stream->owner_conn != 0 && stream->owner_conn != conn.id()) {
        send_error(conn, ErrorCode::kStreamBusy, stream->id,
                   "stream has an ingest owner", /*fatal=*/false);
        return;
      }
      stream->owner_conn = conn.id();
      session.ingest.emplace(stream->id, stream);
    }
  }

  if ((msg.flags & kOpenSubscribe) != 0) {
    auto sub = std::make_shared<Subscriber>();
    sub->reactor = &conn.reactor();
    sub->conn_id = conn.id();
    sub->stream_id = stream->id;
    sub->cap = config_.subscriber_queue_warnings;
    {
      common::MutexLock lock(stream->sub_mutex);
      stream->subscribers.push_back(sub);
    }
    session.subscriptions.emplace(stream->id, sub);
  }

  StreamOpenedMsg reply;
  reply.stream_id = stream->id;
  {
    common::MutexLock lock(stream->state_mutex);
    reply.next_seq = stream->expected_seq;
  }
  std::vector<unsigned char> out;
  append_stream_opened(out, reply);
  conn.send(out);
}

std::shared_ptr<Daemon::Stream> Daemon::create_stream(
    const std::string& name) {
  auto stream = std::make_shared<Stream>();
  stream->name = name;
  if (!config_.repo_dir.empty()) {
    storage::LogWriterOptions options;
    options.threshold = config_.engine.engine.filter_threshold;
    stream->writer = std::make_unique<storage::LogWriter>(
        config_.repo_dir + "/" + name, name, options);
    stream->appender =
        std::make_unique<storage::CanonicalAppender>(*stream->writer);
  }
  Stream* raw = stream.get();
  stream->engine = std::make_unique<online::ShardedEngine>(
      config_.engine,
      [raw](const predict::Warning& w) { raw->on_warning(w); });
  stream->id = next_stream_id_++;
  stream->pump = std::thread([this, stream] {
    common::name_this_thread("dml-pump-" + std::to_string(stream->id));
    pump_main(stream);
  });
  streams_by_name_.emplace(name, stream);
  streams_by_id_.emplace(stream->id, stream);
  return stream;
}

void DML_REACTOR_CONTEXT Daemon::handle_ingest(ReactorConnection& conn,
                                               Session& session,
                                               Ingest ingest) {
  const std::uint32_t stream_id = ingest.stream_id;
  const std::uint64_t seq = ingest.seq;
  auto it = session.ingest.find(stream_id);
  if (it == session.ingest.end()) {
    send_error(conn, ErrorCode::kUnknownStream, stream_id,
               "no ingest stream with this id on this connection",
               /*fatal=*/true);
    return;
  }
  Stream& stream = *it->second;

  if (!ingest.batch.record_frames.empty() && stream.appender != nullptr) {
    send_error(conn, ErrorCode::kProtocol, stream_id,
               "durable streams ingest categorized events only",
               /*fatal=*/true);
    return;
  }
  const std::size_t count = ingest.count;

  common::MutexLock lock(stream.state_mutex);
  if (!stream.failure.empty()) {
    const auto error = failure_frame(stream_id, stream.failure);
    lock.unlock();
    conn.send(error);
    conn.close_after_flush();
    return;
  }
  if (stream.finishing || stream.finished) {
    lock.unlock();
    send_error(conn, ErrorCode::kUnknownStream, stream_id,
               "stream is finishing", /*fatal=*/true);
    return;
  }
  if (seq < stream.expected_seq) {
    // Retransmission of an already-admitted frame (client rewind or
    // reconnect): re-acknowledge, idempotently.
    IngestAckMsg ack{stream_id, stream.expected_seq,
                     static_cast<std::uint32_t>(
                         config_.ingest_queue_frames - stream.queue.size())};
    lock.unlock();
    std::vector<unsigned char> out;
    append_ingest_ack(out, ack);
    conn.send(out);
    return;
  }
  if (seq > stream.expected_seq || stream.queue.size() >=
                                       config_.ingest_queue_frames) {
    ++stream.batches_refused;
    RetryAfterMsg retry{stream_id, stream.expected_seq, kRetryPauseMs};
    lock.unlock();
    std::vector<unsigned char> out;
    append_retry_after(out, retry);
    conn.send(out);
    return;
  }
  // Time-order validation: the whole batch must be non-decreasing and
  // start no earlier than everything already admitted.
  if (count > 0 &&
      (!ingest.ordered || ingest.first_time < stream.last_event_time)) {
    ++stream.batches_refused;
    lock.unlock();
    send_error(conn, ErrorCode::kOutOfOrder, stream_id,
               "event times regressed", /*fatal=*/true);
    return;
  }

  stream.queue.push_back(std::move(ingest.batch));
  ++stream.expected_seq;
  if (count > 0) stream.last_event_time = ingest.last_time;
  stream.events_ingested += count;
  IngestAckMsg ack{stream_id, stream.expected_seq,
                   static_cast<std::uint32_t>(config_.ingest_queue_frames -
                                              stream.queue.size())};
  lock.unlock();
  stream.cv.notify_one();
  std::vector<unsigned char> out;
  append_ingest_ack(out, ack);
  conn.send(out);
}

void DML_REACTOR_CONTEXT Daemon::handle_finish(ReactorConnection& conn,
                                               Session& session,
                           const FinishStreamMsg& msg) {
  auto it = session.ingest.find(msg.stream_id);
  if (it == session.ingest.end()) {
    send_error(conn, ErrorCode::kUnknownStream, msg.stream_id,
               "no ingest stream with this id on this connection",
               /*fatal=*/true);
    return;
  }
  Stream& stream = *it->second;
  auto* cell = static_cast<std::shared_ptr<Session>*>(conn.context());

  common::MutexLock lock(stream.state_mutex);
  if (!stream.failure.empty()) {
    const auto error = failure_frame(msg.stream_id, stream.failure);
    lock.unlock();
    conn.send(error);
    return;
  }
  if (stream.finished) {
    const StreamStatsMsg stats = stream.final_stats;
    lock.unlock();
    std::vector<unsigned char> out;
    append_finished(out, stats);
    conn.send(out);
    return;
  }
  if (msg.seq != stream.expected_seq) {
    // The client believes it sent more (or less) than we admitted:
    // make it rewind/resend before the stream can drain.
    RetryAfterMsg retry{msg.stream_id, stream.expected_seq, kRetryPauseMs};
    lock.unlock();
    std::vector<unsigned char> out;
    append_retry_after(out, retry);
    conn.send(out);
    return;
  }
  stream.finish_waiters.push_back(
      {&conn.reactor(), conn.id(), *cell});
  if (!stream.finishing) {
    stream.finishing = true;
    Batch sentinel;
    sentinel.finish = true;
    stream.queue.push_back(std::move(sentinel));
  }
  lock.unlock();
  stream.cv.notify_one();
}

void DML_REACTOR_CONTEXT Daemon::handle_stats(ReactorConnection& conn,
                                              const StatsMsg& msg) {
  std::shared_ptr<Stream> stream = find_stream(msg.stream_id);
  if (stream == nullptr) {
    send_error(conn, ErrorCode::kUnknownStream, msg.stream_id,
               "unknown stream", /*fatal=*/false);
    return;
  }
  const StreamStatsMsg stats = snapshot_stream_stats(*stream);
  std::vector<unsigned char> out;
  append_stats_reply(out, stats);
  conn.send(out);
}

void DML_REACTOR_CONTEXT Daemon::on_kick(ReactorConnection& conn) {
  if (conn.context() == nullptr) return;
  Session& session = session_of(conn);

  // Control frames posted by pump threads (FINISHED replies).
  {
    common::MutexLock lock(session.mail_mutex);
    if (!session.control.empty()) {
      conn.send(session.control);
      session.control.clear();
    }
  }

  // Subscriber queues: drain warnings, then FINISHED once empty.
  bool all_finished = !session.subscriptions.empty();
  std::vector<unsigned char> out;
  std::vector<std::uint32_t> done;
  for (auto& [stream_id, sub] : session.subscriptions) {
    common::MutexLock lock(sub->out_mutex);
    while (!sub->warnings.empty()) {
      append_warning(out, WarningMsg{stream_id, sub->warnings.front()});
      sub->warnings.pop_front();
    }
    if (sub->finished) {
      StreamStatsMsg stats = sub->final_stats;
      stats.warnings_dropped += sub->dropped;
      append_finished(out, stats);
      done.push_back(stream_id);
    } else {
      all_finished = false;
    }
  }
  for (std::uint32_t id : done) session.subscriptions.erase(id);
  if (!out.empty()) conn.send(out);

  // During drain, a connection whose subscriptions have all delivered
  // FINISHED (and with no ingest role left active) is closed once its
  // socket flushes.
  if (draining_.load(std::memory_order_acquire) && all_finished) {
    conn.close_after_flush();
  }
}

void DML_REACTOR_CONTEXT Daemon::on_disconnect(ReactorConnection& conn,
                           const std::string& reason) {
  (void)reason;
  if (conn.context() == nullptr) return;
  auto* cell = static_cast<std::shared_ptr<Session>*>(conn.context());
  Session& session = **cell;

  // Release ingest ownership: the stream survives for
  // reconnect-with-resume.
  for (auto& [stream_id, stream] : session.ingest) {
    common::MutexLock lock(stream->state_mutex);
    if (stream->owner_conn == session.conn_id) stream->owner_conn = 0;
  }
  // Detach subscriptions: the engine callback stops queueing for them.
  for (auto& [stream_id, sub] : session.subscriptions) {
    common::MutexLock lock(sub->out_mutex);
    sub->detached = true;
  }
  delete cell;
  conn.set_context(nullptr);
}

// ---- Stream pump ---------------------------------------------------------

void Daemon::pump_main(std::shared_ptr<Stream> stream) {
  // The first throw out of serving or finishing the stream fails it.
  const auto fail = [&](const std::exception& e) {
    common::MutexLock lock(stream->state_mutex);
    if (stream->failure.empty()) stream->failure = e.what();
  };
  // A records frame is read into the front of this, reusing each
  // element's ENTRY_DATA.
  std::vector<bgl::RasRecord> records;
  try {
    while (true) {
      Batch batch;
      {
        common::MutexLock lock(stream->state_mutex);
        while (stream->queue.empty()) stream->cv.wait(lock);
        batch = std::move(stream->queue.front());
        stream->queue.pop_front();
      }
      if (batch.finish) break;
      if (stream->appender != nullptr) {
        for (const bgl::Event& event : batch.events) {
          stream->appender->append(event);
        }
      }
      // One engine crossing per wire batch, of events or of records:
      // the sharded producer hands each shard its whole run in one
      // queue push.
      stream->engine->consume_batch(batch.events);
      if (!batch.record_frames.empty()) {
        const std::span<bgl::RasRecord> frame(
            records.data(), read_records(batch.record_frames, records));
        stream->engine->consume_batch(
            std::span<const bgl::RasRecord>(frame));
        for (bgl::RasRecord& record : frame) {
          if (record.entry_data.capacity() > kRetainedEntryBytes) {
            record.entry_data = std::string();
          }
        }
      }
    }
  } catch (const std::exception& e) {
    fail(e);
  }

  online::ShardedEngine::SessionStats engine_stats{};
  try {
    if (stream->appender != nullptr) stream->appender->flush();
    engine_stats = stream->engine->finish();
    if (stream->writer != nullptr) stream->writer->close();
  } catch (const std::exception& e) {
    fail(e);
  }

  StreamStatsMsg stats;
  std::string failure;
  std::vector<Stream::FinishWaiter> waiters;
  {
    common::MutexLock lock(stream->state_mutex);
    stats.stream_id = stream->id;
    stats.events_ingested = stream->events_ingested;
    stats.events_served = engine_stats.events_after_filtering;
    stats.records_rejected = engine_stats.records_rejected;
    stats.warnings_emitted =
        stream->warnings_emitted.load(std::memory_order_relaxed);
    stats.retrainings = engine_stats.retrainings;
    stats.batches_refused = stream->batches_refused;
    stats.finished = 1;
    stream->final_stats = stats;
    stream->finished = true;
    failure = stream->failure;
    waiters.swap(stream->finish_waiters);
  }

  // Answer FINISH_STREAM repliers via their session mailboxes: FINISHED,
  // or the ERROR that carries the failure.  Subscribers get FINISHED via
  // their queues (after any still-queued warnings).
  std::vector<unsigned char> frame;
  if (failure.empty()) {
    append_finished(frame, stats);
  } else {
    frame = failure_frame(stream->id, failure);
  }
  for (const Stream::FinishWaiter& waiter : waiters) {
    waiter.session->post_control(frame);
    waiter.reactor->notify(waiter.conn_id);
  }
  {
    common::MutexLock lock(stream->sub_mutex);
    for (const auto& sub : stream->subscribers) {
      bool kick = false;
      {
        common::MutexLock sub_lock(sub->out_mutex);
        if (sub->detached) continue;
        sub->finished = true;
        sub->final_stats = stats;
        kick = true;
      }
      if (kick) sub->reactor->notify(sub->conn_id);
    }
  }
  stream->pump_cpu_seconds = common::thread_cpu_seconds();
}

// ---- Lifecycle / stats ---------------------------------------------------

std::shared_ptr<Daemon::Stream> Daemon::find_stream(
    std::uint32_t id) const {
  common::MutexLock lock(streams_mutex_);
  auto it = streams_by_id_.find(id);
  return it == streams_by_id_.end() ? nullptr : it->second;
}

StreamStatsMsg Daemon::snapshot_stream_stats(Stream& stream) const {
  common::MutexLock lock(stream.state_mutex);
  if (stream.finished) return stream.final_stats;
  StreamStatsMsg stats;
  stats.stream_id = stream.id;
  stats.events_ingested = stream.events_ingested;
  stats.warnings_emitted =
      stream.warnings_emitted.load(std::memory_order_relaxed);
  stats.batches_refused = stream.batches_refused;
  // events_served / records_rejected / retrainings are engine-side and
  // only safely readable from the pump; they fill in at finish.
  return stats;
}

void Daemon::request_drain() {
  draining_.store(true, std::memory_order_release);
  acceptor_wakeup_.signal();
}

DaemonStats Daemon::wait() {
  request_drain();
  if (acceptor_.joinable()) acceptor_.join();

  // Finish every stream that has no FINISH_STREAM yet: everything
  // already admitted is served, segments seal, FINISHED reaches
  // subscribers.
  std::vector<std::shared_ptr<Stream>> streams;
  {
    common::MutexLock lock(streams_mutex_);
    for (auto& [name, stream] : streams_by_name_) streams.push_back(stream);
  }
  for (const auto& stream : streams) {
    {
      common::MutexLock lock(stream->state_mutex);
      if (stream->finishing || stream->finished) continue;
      stream->finishing = true;
      Batch sentinel;
      sentinel.finish = true;
      stream->queue.push_back(std::move(sentinel));
    }
    stream->cv.notify_one();
  }
  for (const auto& stream : streams) {
    if (stream->pump.joinable()) stream->pump.join();
  }

  // Kick every live connection so drained subscribers get FINISHED and
  // close; then give the reactors a bounded grace period to flush.
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::seconds(1);
  while (clock::now() < deadline) {
    std::uint64_t open = 0;
    for (const auto& reactor : reactors_) {
      const ReactorStats rs = reactor->stats();
      open += rs.connections_adopted - rs.connections_closed;
    }
    if (open == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const auto& reactor : reactors_) reactor->stop();
  stopped_.store(true);

  DaemonStats total = stats();
  for (std::size_t i = 0; i < reactors_.size(); ++i) {
    total.threads.push_back({"dml-reactor-" + std::to_string(i), 0,
                             reactors_[i]->stats().cpu_seconds});
  }
  total.threads.push_back({"dml-accept", 0, acceptor_cpu_seconds_});
  std::sort(streams.begin(), streams.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  for (const auto& stream : streams) {
    total.threads.push_back({"dml-pump-" + std::to_string(stream->id),
                             stream->id, stream->pump_cpu_seconds});
    for (const auto& shard : stream->engine->shard_reports()) {
      total.threads.push_back({"dml-shard-" + std::to_string(shard.index),
                               stream->id, shard.cpu_seconds});
    }
  }
  return total;
}

DaemonStats Daemon::stop() { return wait(); }

DaemonStats Daemon::stats() const {
  DaemonStats total;
  total.accepts = accepts_.load(std::memory_order_relaxed);
  total.accepts_failed = accepts_failed_.load(std::memory_order_relaxed);
  for (const auto& reactor : reactors_) {
    const ReactorStats rs = reactor->stats();
    total.frames_received += rs.frames_received;
    total.connections_adopted += rs.connections_adopted;
    total.connections_closed += rs.connections_closed;
    total.connections_failed += rs.connections_failed;
  }
  std::vector<std::shared_ptr<Stream>> streams;
  {
    common::MutexLock lock(streams_mutex_);
    for (const auto& [id, stream] : streams_by_id_) {
      streams.push_back(stream);
    }
  }
  for (const auto& stream : streams) {
    total.streams.push_back(snapshot_stream_stats(*stream));
    common::MutexLock lock(stream->state_mutex);
    if (!stream->failure.empty()) {
      total.stream_failures.emplace(stream->id, stream->failure);
    }
  }
  return total;
}

}  // namespace dml::net
