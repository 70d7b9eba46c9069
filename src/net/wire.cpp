#include "net/wire.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "logio/binary_format.hpp"
#include "storage/format.hpp"

namespace dml::net {
namespace {

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

/// Frame-sized common header of every INGEST_* payload.
void put_ingest_header(std::vector<unsigned char>& out,
                       std::uint32_t stream_id, std::uint64_t seq,
                       std::uint32_t count) {
  put_u32(out, stream_id);
  put_u64(out, seq);
  put_u32(out, count);
}

/// Emits the frame bytes for a payload already staged in `scratch`.
void finish_frame(std::vector<unsigned char>& out, FrameType type,
                  const std::vector<unsigned char>& scratch) {
  append_frame(out, type,
               std::span<const unsigned char>(scratch.data(), scratch.size()));
}

void put_stream_stats(std::vector<unsigned char>& out,
                      const StreamStatsMsg& msg) {
  put_u32(out, msg.stream_id);
  put_u64(out, msg.events_ingested);
  put_u64(out, msg.events_served);
  put_u64(out, msg.records_rejected);
  put_u64(out, msg.warnings_emitted);
  put_u64(out, msg.warnings_dropped);
  put_u64(out, msg.retrainings);
  put_u64(out, msg.batches_refused);
  out.push_back(msg.finished);
}

}  // namespace

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kOpenStream: return "OPEN_STREAM";
    case FrameType::kStreamOpened: return "STREAM_OPENED";
    case FrameType::kIngestEvents: return "INGEST_EVENTS";
    case FrameType::kIngestRecords: return "INGEST_RECORDS";
    case FrameType::kIngestAck: return "INGEST_ACK";
    case FrameType::kRetryAfter: return "RETRY_AFTER";
    case FrameType::kWarning: return "WARNING";
    case FrameType::kFinishStream: return "FINISH_STREAM";
    case FrameType::kFinished: return "FINISHED";
    case FrameType::kStats: return "STATS";
    case FrameType::kStatsReply: return "STATS_REPLY";
    case FrameType::kError: return "ERROR";
    case FrameType::kBye: return "BYE";
  }
  return "UNKNOWN";
}

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol: return "protocol";
    case ErrorCode::kUnknownStream: return "unknown-stream";
    case ErrorCode::kStreamBusy: return "stream-busy";
    case ErrorCode::kOutOfOrder: return "out-of-order";
    case ErrorCode::kDraining: return "draining";
  }
  return "unknown";
}

void put_u16(std::vector<unsigned char>& out, std::uint16_t v) {
  out.push_back(static_cast<unsigned char>(v));
  out.push_back(static_cast<unsigned char>(v >> 8));
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  out.push_back(static_cast<unsigned char>(v));
  out.push_back(static_cast<unsigned char>(v >> 8));
  out.push_back(static_cast<unsigned char>(v >> 16));
  out.push_back(static_cast<unsigned char>(v >> 24));
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_i64(std::vector<unsigned char>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > size_) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (pos_ + 2 > size_) {
    ok_ = false;
    pos_ = size_;
    return 0;
  }
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (pos_ + 4 > size_) {
    ok_ = false;
    pos_ = size_;
    return 0;
  }
  const std::uint32_t v = get_u32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | hi << 32;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

std::string ByteReader::bytes(std::size_t n) {
  if (pos_ + n > size_ || n > size_) {
    ok_ = false;
    pos_ = size_;
    return {};
  }
  std::string result(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return result;
}

const unsigned char* ByteReader::raw(std::size_t n) {
  if (pos_ + n > size_ || n > size_) {
    ok_ = false;
    pos_ = size_;
    return nullptr;
  }
  const unsigned char* p = data_ + pos_;
  pos_ += n;
  return p;
}

void append_frame(std::vector<unsigned char>& out, FrameType type,
                  std::span<const unsigned char> payload) {
  DML_CHECK_MSG(payload.size() <= kMaxFramePayload,
                "frame payload exceeds protocol limit");
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<unsigned char>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  std::uint32_t crc = common::crc32(&out[out.size() - payload.size() - 1],
                                    payload.size() + 1);
  put_u32(out, crc);
}

DecodedFrame decode_frame(const unsigned char* data, std::size_t size) {
  DecodedFrame result;
  const auto bad = [&](std::string why) {
    result.status = DecodeStatus::kBad;
    result.error = std::move(why);
    result.consumed = 0;
    return result;
  };
  if (size < 4) return result;  // kNeedMore
  const std::uint32_t payload_len = get_u32(data);
  if (payload_len > kMaxFramePayload) {
    return bad("frame payload length " + std::to_string(payload_len) +
               " exceeds limit");
  }
  const std::size_t frame = kFrameOverhead + payload_len;
  if (size < frame) return result;  // kNeedMore

  const std::uint32_t crc = common::crc32(data + 4, payload_len + 1);
  if (crc != get_u32(data + 5 + payload_len)) return bad("frame CRC mismatch");

  const std::uint8_t raw_type = data[4];
  if (raw_type < static_cast<std::uint8_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kBye)) {
    return bad("unknown frame type " + std::to_string(raw_type));
  }
  result.status = DecodeStatus::kFrame;
  result.consumed = frame;
  result.type = static_cast<FrameType>(raw_type);
  result.payload = std::span<const unsigned char>(data + 5, payload_len);
  return result;
}

// ---- HELLO / HELLO_ACK --------------------------------------------------

void append_hello(std::vector<unsigned char>& out, const HelloMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.version);
  finish_frame(out, FrameType::kHello, payload);
}

void append_hello_ack(std::vector<unsigned char>& out, const HelloMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.version);
  finish_frame(out, FrameType::kHelloAck, payload);
}

std::optional<HelloMsg> decode_hello(std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  HelloMsg msg;
  msg.version = reader.u32();
  if (!reader.done()) return std::nullopt;
  return msg;
}

// ---- OPEN_STREAM / STREAM_OPENED ----------------------------------------

void append_open_stream(std::vector<unsigned char>& out,
                        const OpenStreamMsg& msg) {
  std::vector<unsigned char> payload;
  payload.push_back(msg.flags);
  put_u32(payload, static_cast<std::uint32_t>(msg.name.size()));
  payload.insert(payload.end(), msg.name.begin(), msg.name.end());
  finish_frame(out, FrameType::kOpenStream, payload);
}

std::optional<OpenStreamMsg> decode_open_stream(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  OpenStreamMsg msg;
  msg.flags = reader.u8();
  const std::uint32_t name_len = reader.u32();
  msg.name = reader.bytes(name_len);
  if (!reader.done()) return std::nullopt;
  if (msg.flags == 0 || (msg.flags & ~(kOpenIngest | kOpenSubscribe)) != 0) {
    return std::nullopt;
  }
  if (msg.name.empty() || msg.name.size() > 256) return std::nullopt;
  return msg;
}

void append_stream_opened(std::vector<unsigned char>& out,
                          const StreamOpenedMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.stream_id);
  put_u64(payload, msg.next_seq);
  finish_frame(out, FrameType::kStreamOpened, payload);
}

std::optional<StreamOpenedMsg> decode_stream_opened(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  StreamOpenedMsg msg;
  msg.stream_id = reader.u32();
  msg.next_seq = reader.u64();
  if (!reader.done()) return std::nullopt;
  return msg;
}

// ---- INGEST_EVENTS / INGEST_RECORDS -------------------------------------

void append_ingest_events(std::vector<unsigned char>& out,
                          std::uint32_t stream_id, std::uint64_t seq,
                          std::span<const bgl::Event> events) {
  std::vector<unsigned char> payload;
  payload.reserve(16 + events.size() * storage::kEventRecordSize);
  put_ingest_header(payload, stream_id, seq,
                    static_cast<std::uint32_t>(events.size()));
  unsigned char record[storage::kEventRecordSize];
  for (const bgl::Event& event : events) {
    storage::encode_event(event, record);
    payload.insert(payload.end(), record, record + storage::kEventRecordSize);
  }
  finish_frame(out, FrameType::kIngestEvents, payload);
}

std::optional<IngestEventsMsg> decode_ingest_events(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  IngestEventsMsg msg;
  msg.stream_id = reader.u32();
  msg.seq = reader.u64();
  const std::uint32_t count = reader.u32();
  if (!reader.ok()) return std::nullopt;
  if (reader.remaining() != count * storage::kEventRecordSize) {
    return std::nullopt;
  }
  msg.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* record = reader.raw(storage::kEventRecordSize);
    bgl::Event event;
    if (record == nullptr || !storage::decode_event(record, &event)) {
      return std::nullopt;
    }
    msg.events.push_back(event);
  }
  if (!reader.done()) return std::nullopt;
  return msg;
}

void append_ingest_records(std::vector<unsigned char>& out,
                           std::uint32_t stream_id, std::uint64_t seq,
                           std::span<const bgl::RasRecord> records) {
  std::vector<unsigned char> payload;
  put_ingest_header(payload, stream_id, seq,
                    static_cast<std::uint32_t>(records.size()));
  for (const bgl::RasRecord& record : records) {
    logio::append_record_frame(payload, record);
  }
  finish_frame(out, FrameType::kIngestRecords, payload);
}

std::optional<IngestRecordsMsg> decode_ingest_records(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  IngestRecordsMsg msg;
  msg.stream_id = reader.u32();
  msg.seq = reader.u64();
  const std::uint32_t count = reader.u32();
  if (!reader.ok()) return std::nullopt;
  msg.records.reserve(count);
  const unsigned char* cursor = payload.data() + (payload.size() -
                                                  reader.remaining());
  std::size_t left = reader.remaining();
  for (std::uint32_t i = 0; i < count; ++i) {
    bgl::RasRecord record;
    std::size_t consumed = 0;
    if (logio::decode_record_frame(cursor, left, &record, &consumed) !=
        logio::RecordFrameStatus::kOk) {
      return std::nullopt;
    }
    cursor += consumed;
    left -= consumed;
    msg.records.push_back(std::move(record));
  }
  if (left != 0) return std::nullopt;
  return msg;
}

// ---- INGEST_ACK / RETRY_AFTER -------------------------------------------

void append_ingest_ack(std::vector<unsigned char>& out,
                       const IngestAckMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.stream_id);
  put_u64(payload, msg.next_seq);
  put_u32(payload, msg.queue_free);
  finish_frame(out, FrameType::kIngestAck, payload);
}

std::optional<IngestAckMsg> decode_ingest_ack(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  IngestAckMsg msg;
  msg.stream_id = reader.u32();
  msg.next_seq = reader.u64();
  msg.queue_free = reader.u32();
  if (!reader.done()) return std::nullopt;
  return msg;
}

void append_retry_after(std::vector<unsigned char>& out,
                        const RetryAfterMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.stream_id);
  put_u64(payload, msg.expected_seq);
  put_u32(payload, msg.retry_ms);
  finish_frame(out, FrameType::kRetryAfter, payload);
}

std::optional<RetryAfterMsg> decode_retry_after(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  RetryAfterMsg msg;
  msg.stream_id = reader.u32();
  msg.expected_seq = reader.u64();
  msg.retry_ms = reader.u32();
  if (!reader.done()) return std::nullopt;
  return msg;
}

// ---- WARNING -------------------------------------------------------------

namespace {
constexpr std::uint8_t kWarnHasCategory = 1;
constexpr std::uint8_t kWarnHasLocation = 2;
}  // namespace

void append_warning(std::vector<unsigned char>& out, const WarningMsg& msg) {
  const predict::Warning& w = msg.warning;
  std::vector<unsigned char> payload;
  put_u32(payload, msg.stream_id);
  put_i64(payload, w.issued_at);
  put_i64(payload, w.deadline);
  std::uint8_t flags = 0;
  if (w.category.has_value()) flags |= kWarnHasCategory;
  if (w.location.has_value()) flags |= kWarnHasLocation;
  payload.push_back(flags);
  put_u32(payload, w.category.has_value() ? *w.category : 0);
  put_u32(payload, w.location.has_value() ? w.location->packed() : 0);
  put_u64(payload, w.rule_id);
  payload.push_back(static_cast<unsigned char>(w.source));
  finish_frame(out, FrameType::kWarning, payload);
}

std::optional<WarningMsg> decode_warning(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  WarningMsg msg;
  msg.stream_id = reader.u32();
  msg.warning.issued_at = reader.i64();
  msg.warning.deadline = reader.i64();
  const std::uint8_t flags = reader.u8();
  const std::uint32_t category = reader.u32();
  const std::uint32_t location = reader.u32();
  msg.warning.rule_id = reader.u64();
  const std::uint8_t source = reader.u8();
  if (!reader.done()) return std::nullopt;
  if ((flags & ~(kWarnHasCategory | kWarnHasLocation)) != 0) {
    return std::nullopt;
  }
  // Only assigned sources decode: 3 and 4 are below kNumRuleSources but
  // name the retired classifier experts.
  const auto rule_source = static_cast<learners::RuleSource>(source);
  if (std::ranges::count(learners::kRuleSources, rule_source) == 0) {
    return std::nullopt;
  }
  if ((flags & kWarnHasCategory) != 0) {
    if (category > 0xFFFF) return std::nullopt;
    msg.warning.category = static_cast<CategoryId>(category);
  }
  if ((flags & kWarnHasLocation) != 0) {
    msg.warning.location = bgl::Location::from_packed(location);
  }
  msg.warning.source = rule_source;
  return msg;
}

// ---- FINISH_STREAM / FINISHED / STATS ------------------------------------

void append_finish_stream(std::vector<unsigned char>& out,
                          const FinishStreamMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.stream_id);
  put_u64(payload, msg.seq);
  finish_frame(out, FrameType::kFinishStream, payload);
}

std::optional<FinishStreamMsg> decode_finish_stream(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  FinishStreamMsg msg;
  msg.stream_id = reader.u32();
  msg.seq = reader.u64();
  if (!reader.done()) return std::nullopt;
  return msg;
}

void append_finished(std::vector<unsigned char>& out,
                     const StreamStatsMsg& msg) {
  std::vector<unsigned char> payload;
  put_stream_stats(payload, msg);
  finish_frame(out, FrameType::kFinished, payload);
}

void append_stats_reply(std::vector<unsigned char>& out,
                        const StreamStatsMsg& msg) {
  std::vector<unsigned char> payload;
  put_stream_stats(payload, msg);
  finish_frame(out, FrameType::kStatsReply, payload);
}

std::optional<StreamStatsMsg> decode_stream_stats(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  StreamStatsMsg msg;
  msg.stream_id = reader.u32();
  msg.events_ingested = reader.u64();
  msg.events_served = reader.u64();
  msg.records_rejected = reader.u64();
  msg.warnings_emitted = reader.u64();
  msg.warnings_dropped = reader.u64();
  msg.retrainings = reader.u64();
  msg.batches_refused = reader.u64();
  msg.finished = reader.u8();
  if (!reader.done()) return std::nullopt;
  if (msg.finished > 1) return std::nullopt;
  return msg;
}

void append_stats(std::vector<unsigned char>& out, const StatsMsg& msg) {
  std::vector<unsigned char> payload;
  put_u32(payload, msg.stream_id);
  finish_frame(out, FrameType::kStats, payload);
}

std::optional<StatsMsg> decode_stats(std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  StatsMsg msg;
  msg.stream_id = reader.u32();
  if (!reader.done()) return std::nullopt;
  return msg;
}

// ---- ERROR / BYE ---------------------------------------------------------

void append_error(std::vector<unsigned char>& out, const ErrorMsg& msg) {
  std::vector<unsigned char> payload;
  put_u16(payload, static_cast<std::uint16_t>(msg.code));
  put_u32(payload, msg.stream_id);
  put_u32(payload, static_cast<std::uint32_t>(msg.message.size()));
  payload.insert(payload.end(), msg.message.begin(), msg.message.end());
  finish_frame(out, FrameType::kError, payload);
}

std::optional<ErrorMsg> decode_error(std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  ErrorMsg msg;
  const std::uint16_t code = reader.u16();
  msg.stream_id = reader.u32();
  const std::uint32_t msg_len = reader.u32();
  msg.message = reader.bytes(msg_len);
  if (!reader.done()) return std::nullopt;
  if (code < static_cast<std::uint16_t>(ErrorCode::kProtocol) ||
      code > static_cast<std::uint16_t>(ErrorCode::kDraining)) {
    return std::nullopt;
  }
  msg.code = static_cast<ErrorCode>(code);
  return msg;
}

void append_bye(std::vector<unsigned char>& out) {
  append_frame(out, FrameType::kBye, {});
}

}  // namespace dml::net
