// Blocking client for the dmlfpd wire protocol — the library behind
// perfbench and every daemon test.  One Client is one connection;
// it multiplexes any number of opened streams over it and demultiplexes
// the interleaved reply stream (acks, retries, warnings, stats) from a
// single dispatch loop.
//
// Ingest is windowed go-back-N: send_events() frames a batch with the
// next sequence number and keeps it in an in-flight window until the
// daemon's cumulative INGEST_ACK covers it; a RETRY_AFTER rewinds the
// window to the daemon's expected sequence, paces, and resends from
// there.  The daemon answers every INGEST frame with exactly one reply,
// in order, so a refused burst costs one rewind: the client counts the
// replies still owed to frames sent before its latest rewind, and those
// replies (the rest of the burst's RETRY_AFTERs among them) only drop
// acknowledged frames, with no pacing and no resend.  The same window
// makes reconnect-with-resume one line: open the stream again on a
// fresh Client, and STREAM_OPENED.next_seq says exactly where the
// daemon's state ends and resending must begin.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace dml::net {

/// Daemon-reported failure (an ERROR frame) or a transport/protocol
/// breakdown on the client side.
class ClientError : public std::runtime_error {
 public:
  ClientError(std::string what, std::optional<ErrorCode> code = std::nullopt)
      : std::runtime_error(std::move(what)), code_(code) {}

  /// The daemon's ERROR code, when the failure was an ERROR frame.
  std::optional<ErrorCode> code() const { return code_; }

 private:
  std::optional<ErrorCode> code_;
};

struct ClientConfig {
  /// Events per INGEST_EVENTS frame, and the most records per
  /// INGEST_RECORDS frame.
  std::size_t batch_events = 512;
};

class Client {
 public:
  /// Connects and completes the HELLO handshake.
  Client(const std::string& address, std::uint16_t port,
         ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens (or re-attaches to) a named stream.  next_seq in the reply
  /// is where ingest must (re)start — the reconnect-resume point; the
  /// client adopts it as its sending sequence.
  StreamOpenedMsg open_stream(const std::string& name,
                              std::uint8_t flags = kOpenIngest);

  /// Queues events for ingest, framing them into batches; blocks only
  /// when the in-flight window of eight frames is full (then processes
  /// acks/retries — and collects any warnings — until it drains).
  /// Events must be fed in time order.
  void send_events(std::uint32_t stream_id,
                   std::span<const bgl::Event> events);

  /// Same, carrying raw RAS records (INGEST_RECORDS frames).  A frame
  /// closes at batch_events records or before the record that would
  /// carry its payload past kMaxFramePayload; a record too large for any
  /// frame throws ClientError before anything is sent.
  void send_records(std::uint32_t stream_id,
                    std::span<const bgl::RasRecord> records);

  /// Flushes the partial batch and blocks until every in-flight frame
  /// is acknowledged.
  void flush(std::uint32_t stream_id);

  /// flush() + FINISH_STREAM, blocking until the daemon's FINISHED
  /// (warnings keep accumulating while waiting).
  StreamStatsMsg finish_stream(std::uint32_t stream_id);

  /// Blocks until one STATS_REPLY arrives.
  StreamStatsMsg stats(std::uint32_t stream_id);

  /// Drains whatever the socket has ready without blocking, then moves
  /// out every warning received so far.
  std::vector<WarningMsg> take_warnings();

  /// Blocks until at least one more frame arrives (or the daemon sends
  /// FINISHED for `stream_id`, see finished()); then as take_warnings().
  std::vector<WarningMsg> wait_warnings();

  /// FINISHED stats for a stream, once received (subscriber side).
  std::optional<StreamStatsMsg> finished(std::uint32_t stream_id) const;

  /// Orderly goodbye: sends BYE, then reads and discards until the
  /// daemon closes the connection (EOF or a socket error), and closes.
  /// The daemon releases the connection's ingest ownership before it
  /// closes, so when bye() returns a new connection can open the same
  /// streams for ingest.  Implied by the destructor.
  void bye();

  /// Go-back-N rewinds: RETRY_AFTER frames honoured with a pause and a
  /// resend.  A refused burst of in-flight frames counts once; the
  /// RETRY_AFTERs answering frames sent before the rewind do not count.
  std::uint64_t retries() const { return retries_; }

 private:
  struct InFlight {
    std::uint64_t seq = 0;
    std::vector<unsigned char> frame;  // encoded, ready to resend
  };
  struct StreamState {
    std::uint64_t next_seq = 0;        // next unused sequence number
    std::deque<InFlight> window;       // unacknowledged frames
    std::vector<bgl::Event> pending;   // partial batch
    std::optional<StreamStatsMsg> finished;
    /// Replies (INGEST_ACK or RETRY_AFTER) still owed to sent INGEST
    /// frames, and how many of the oldest of them answer frames sent
    /// before the latest rewind.
    std::uint64_t owed_replies = 0;
    std::uint64_t stale_replies = 0;
  };

  StreamState& state_of(std::uint32_t stream_id);
  /// Accounts one INGEST reply of the stream.
  void settle_reply(StreamState& state);
  /// Drops the window's frames below the daemon's cumulative `next_seq`.
  void drop_acknowledged(StreamState& state, std::uint64_t next_seq);
  void send_bytes(const unsigned char* data, std::size_t size);
  void send_frame_tracked(StreamState& state, std::uint32_t stream_id,
                          std::vector<unsigned char> frame);
  void flush_pending(std::uint32_t stream_id, StreamState& state);
  /// Reads once (blocking or not) and dispatches every complete frame.
  /// Returns false on clean EOF in nonblocking mode with nothing read.
  bool pump_incoming(bool blocking);
  void dispatch(FrameType type, std::span<const unsigned char> payload);
  /// Blocks until `state`'s window has room.
  void await_window(StreamState& state);

  FdHandle fd_;
  ClientConfig config_;
  std::vector<unsigned char> in_;
  std::vector<WarningMsg> warnings_;
  std::unordered_map<std::uint32_t, StreamState> streams_;
  std::uint64_t retries_ = 0;
  /// Total FINISHED frames dispatched; wait_warnings() unblocks when it
  /// advances.
  std::uint64_t finished_seen_ = 0;
  bool bye_sent_ = false;
  // Dispatch-loop latches for the blocking expect-reply calls.
  bool hello_acked_ = false;
  std::optional<StreamOpenedMsg> opened_;
  std::optional<StreamStatsMsg> stats_reply_;
  /// Set when a RETRY_AFTER arrived while awaiting FINISHED.
  bool retry_finish_ = false;
};

}  // namespace dml::net
