// Wire protocol of the dmlfpd serving daemon (DESIGN.md §12).
//
// Transport grammar: a TCP byte stream of length-prefixed, CRC-trailed
// frames (all integers little-endian):
//
//   frame:  payload_len u32 | type u8 | payload bytes | crc32 u32
//
// where the CRC covers the type byte and the payload, so a flipped bit
// anywhere in a frame — including its type — is rejected at the exact
// frame.  A frame error is not recoverable in-stream (the length prefix
// can no longer be trusted); the receiving side tears the connection
// down, and the client's reconnect-with-resume path takes over.
//
// Session shape:
//   client:  HELLO → OPEN_STREAM → INGEST_* / SUBSCRIBE-side reads
//            → FINISH_STREAM → BYE
//   server:  HELLO_ACK, STREAM_OPENED, INGEST_ACK / RETRY_AFTER,
//            WARNING (push), FINISHED, STATS_REPLY, ERROR
//
// Ingest flow control is go-back-N: every INGEST_* frame carries a
// per-stream sequence number; the daemon admits the frame into the
// stream's bounded queue and acknowledges with INGEST_ACK{next_seq}, or
// — when the queue is full or the sequence is not the expected one —
// answers RETRY_AFTER{expected_seq, retry_ms} and discards.  A frame
// with seq below the expected one is a retransmission of something
// already admitted: it is discarded and re-acknowledged (idempotent),
// which is what makes blind client rewinds and reconnect-with-resume
// safe.  Every INGEST_* frame gets exactly one reply — INGEST_ACK,
// RETRY_AFTER, or an ERROR that closes the connection — in the order
// the frames arrived; net::Client relies on it to rewind once per
// refused burst rather than once per refused frame.  Event payloads
// reuse the storage-plane record encoding (storage::format::encode_event,
// 24 bytes CRC'd); raw-record payloads reuse the logio binary-log record
// frames, so the daemon's inputs are byte-compatible with both on-disk
// formats.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgl/record.hpp"
#include "predict/predictor.hpp"

namespace dml::net {

inline constexpr std::uint32_t kProtocolVersion = 1;
/// Upper bound accepted for one frame payload; anything larger is
/// treated as corruption rather than allocated.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;
/// Bytes of framing around a payload: length prefix + type + CRC.
inline constexpr std::size_t kFrameOverhead = 9;
/// Bytes of the common header of every INGEST_* payload: stream id,
/// sequence number and item count.
inline constexpr std::size_t kIngestHeader = 16;

enum class FrameType : std::uint8_t {
  kHello = 1,         // C->S  version
  kHelloAck = 2,      // S->C  version
  kOpenStream = 3,    // C->S  flags + stream name
  kStreamOpened = 4,  // S->C  stream id + next expected ingest seq
  kIngestEvents = 5,  // C->S  categorized events (24-byte records)
  kIngestRecords = 6, // C->S  raw RAS records (binary-log frames)
  kIngestAck = 7,     // S->C  cumulative admission ack
  kRetryAfter = 8,    // S->C  admission refused; rewind and retry
  kWarning = 9,       // S->C  one failure warning (subscription push)
  kFinishStream = 10, // C->S  end of stream; drain and report
  kFinished = 11,     // S->C  stream drained, final stats
  kStats = 12,        // C->S  stats probe
  kStatsReply = 13,   // S->C  current stats
  kError = 14,        // S->C  protocol / admission error
  kBye = 15,          // C->S  orderly close
};

std::string_view to_string(FrameType type);

/// OPEN_STREAM intent flags (combinable).
inline constexpr std::uint8_t kOpenIngest = 1;
inline constexpr std::uint8_t kOpenSubscribe = 2;

enum class ErrorCode : std::uint16_t {
  kProtocol = 1,       // malformed or unexpected frame, or a stream
                       // name --repo cannot use
  kUnknownStream = 2,  // stream id not open on this connection, or
                       // the stream failed (the message has the cause)
  kStreamBusy = 3,     // another connection owns ingest for the stream,
                       // or its --repo directory cannot be created
  kOutOfOrder = 4,     // event times regressed within the stream
  kDraining = 5,       // daemon is shutting down; no new work
};

std::string_view to_string(ErrorCode code);

// ---- Little-endian scalar helpers --------------------------------------

void put_u16(std::vector<unsigned char>& out, std::uint16_t v);
void put_u32(std::vector<unsigned char>& out, std::uint32_t v);
void put_u64(std::vector<unsigned char>& out, std::uint64_t v);
void put_i64(std::vector<unsigned char>& out, std::int64_t v);

/// Bounds-checked sequential reader over one payload.  Reads past the
/// end clamp to zero and latch ok() == false — callers validate once at
/// the end instead of per field.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const unsigned char> payload)
      : ByteReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  /// Reads `n` raw bytes into a string (empty + !ok() when short).
  std::string bytes(std::size_t n);
  /// Pointer to `n` raw bytes, advancing; nullptr + !ok() when short.
  const unsigned char* raw(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool ok() const { return ok_; }
  /// ok() and the payload fully consumed — the strict decoder check.
  bool done() const { return ok_ && pos_ == size_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Frame codec --------------------------------------------------------

/// Appends one complete frame (length prefix, type, payload, CRC).
void append_frame(std::vector<unsigned char>& out, FrameType type,
                  std::span<const unsigned char> payload);

enum class DecodeStatus { kFrame, kNeedMore, kBad };

struct DecodedFrame {
  DecodeStatus status = DecodeStatus::kNeedMore;
  /// Whole-frame length consumed from the buffer (kFrame only).
  std::size_t consumed = 0;
  FrameType type = FrameType::kHello;
  /// View into the caller's buffer; valid until the buffer mutates.
  std::span<const unsigned char> payload;
  /// Why the frame was rejected (kBad only).
  std::string error;
};

/// Decodes the frame at the front of [data, data + size).  kNeedMore
/// means the buffer ends mid-frame; kBad means the stream is corrupt at
/// this frame (oversized payload, unknown type, or CRC mismatch) and
/// cannot be resynchronised.
DecodedFrame decode_frame(const unsigned char* data, std::size_t size);

// ---- Typed payloads ------------------------------------------------------
// Each message has an append_* that emits the full frame and a decode_*
// that parses a payload span, returning nullopt on any malformed input
// (short, trailing bytes, bad enum values, failed record CRCs).

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
};
void append_hello(std::vector<unsigned char>& out, const HelloMsg& msg);
void append_hello_ack(std::vector<unsigned char>& out, const HelloMsg& msg);
std::optional<HelloMsg> decode_hello(std::span<const unsigned char> payload);

struct OpenStreamMsg {
  std::uint8_t flags = kOpenIngest;
  std::string name;
};
void append_open_stream(std::vector<unsigned char>& out,
                        const OpenStreamMsg& msg);
std::optional<OpenStreamMsg> decode_open_stream(
    std::span<const unsigned char> payload);

struct StreamOpenedMsg {
  std::uint32_t stream_id = 0;
  std::uint64_t next_seq = 0;
};
void append_stream_opened(std::vector<unsigned char>& out,
                          const StreamOpenedMsg& msg);
std::optional<StreamOpenedMsg> decode_stream_opened(
    std::span<const unsigned char> payload);

struct IngestEventsMsg {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  std::vector<bgl::Event> events;
};
void append_ingest_events(std::vector<unsigned char>& out,
                          std::uint32_t stream_id, std::uint64_t seq,
                          std::span<const bgl::Event> events);
std::optional<IngestEventsMsg> decode_ingest_events(
    std::span<const unsigned char> payload);

struct IngestRecordsMsg {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  std::vector<bgl::RasRecord> records;
};
void append_ingest_records(std::vector<unsigned char>& out,
                           std::uint32_t stream_id, std::uint64_t seq,
                           std::span<const bgl::RasRecord> records);

/// An INGEST_RECORDS payload whose `count` record frames each passed
/// logio::check_record_frame, and nothing follows them.  The records
/// stay bytes: logio::read_record_frame reads them when needed.
struct CheckedIngestRecords {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  /// The record frames: a view into the checked payload.
  std::span<const unsigned char> frames;
  /// Event times of the first and last record (0 when count is 0).
  TimeSec first_time = 0;
  TimeSec last_time = 0;
  /// No record's time is below its predecessor's.
  bool ordered = true;
};
/// Validates exactly what decode_ingest_records does, reading no record.
std::optional<CheckedIngestRecords> check_ingest_records(
    std::span<const unsigned char> payload);
/// check_ingest_records, then every record read out.
std::optional<IngestRecordsMsg> decode_ingest_records(
    std::span<const unsigned char> payload);

struct IngestAckMsg {
  std::uint32_t stream_id = 0;
  /// Next sequence number the daemon expects (cumulative ack).
  std::uint64_t next_seq = 0;
  /// Admission-queue slots free after this frame (flow-control hint).
  std::uint32_t queue_free = 0;
};
void append_ingest_ack(std::vector<unsigned char>& out,
                       const IngestAckMsg& msg);
std::optional<IngestAckMsg> decode_ingest_ack(
    std::span<const unsigned char> payload);

struct RetryAfterMsg {
  std::uint32_t stream_id = 0;
  /// The daemon admits nothing until the client rewinds to this seq.
  std::uint64_t expected_seq = 0;
  std::uint32_t retry_ms = 0;
};
void append_retry_after(std::vector<unsigned char>& out,
                        const RetryAfterMsg& msg);
std::optional<RetryAfterMsg> decode_retry_after(
    std::span<const unsigned char> payload);

struct WarningMsg {
  std::uint32_t stream_id = 0;
  predict::Warning warning;
};
void append_warning(std::vector<unsigned char>& out, const WarningMsg& msg);
std::optional<WarningMsg> decode_warning(
    std::span<const unsigned char> payload);

struct FinishStreamMsg {
  std::uint32_t stream_id = 0;
  /// Sequence the stream must reach before draining (the client's next
  /// unused seq — every admitted frame below it is served first).
  std::uint64_t seq = 0;
};
void append_finish_stream(std::vector<unsigned char>& out,
                          const FinishStreamMsg& msg);
std::optional<FinishStreamMsg> decode_finish_stream(
    std::span<const unsigned char> payload);

/// Per-stream accounting, sent in FINISHED and STATS_REPLY.
struct StreamStatsMsg {
  std::uint32_t stream_id = 0;
  /// Events admitted into the stream (after transport decode).
  std::uint64_t events_ingested = 0;
  /// Events served by the engine (after preprocess filtering).
  std::uint64_t events_served = 0;
  /// Engine-side rejected/skipped units (drops, quarantine drains).
  std::uint64_t records_rejected = 0;
  std::uint64_t warnings_emitted = 0;
  /// Warnings discarded at slow subscribers' bounded queues.
  std::uint64_t warnings_dropped = 0;
  std::uint64_t retrainings = 0;
  /// INGEST frames refused with RETRY_AFTER (queue full or bad seq).
  std::uint64_t batches_refused = 0;
  /// Stream has been drained (FINISHED semantics when true).
  std::uint8_t finished = 0;
};
void append_finished(std::vector<unsigned char>& out,
                     const StreamStatsMsg& msg);
void append_stats_reply(std::vector<unsigned char>& out,
                        const StreamStatsMsg& msg);
std::optional<StreamStatsMsg> decode_stream_stats(
    std::span<const unsigned char> payload);

struct StatsMsg {
  std::uint32_t stream_id = 0;
};
void append_stats(std::vector<unsigned char>& out, const StatsMsg& msg);
std::optional<StatsMsg> decode_stats(std::span<const unsigned char> payload);

struct ErrorMsg {
  ErrorCode code = ErrorCode::kProtocol;
  std::uint32_t stream_id = 0;
  std::string message;
};
void append_error(std::vector<unsigned char>& out, const ErrorMsg& msg);
std::optional<ErrorMsg> decode_error(std::span<const unsigned char> payload);

void append_bye(std::vector<unsigned char>& out);

}  // namespace dml::net
