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

/// Starts a frame of `type` in `out`: a length prefix that end_frame
/// fills in, then the type byte.  Returns the type byte's offset, where
/// the frame CRC begins; the payload is appended straight after it.
std::size_t begin_frame(std::vector<unsigned char>& out, FrameType type) {
  put_u32(out, 0);
  out.push_back(static_cast<unsigned char>(type));
  return out.size() - 1;
}

/// Completes the frame begun at `type_at`: its length prefix and the
/// CRC over its type byte and payload.
void end_frame(std::vector<unsigned char>& out, std::size_t type_at) {
  const std::size_t payload = out.size() - type_at - 1;
  DML_CHECK_MSG(payload <= kMaxFramePayload,
                "frame payload exceeds protocol limit");
  const auto length = static_cast<std::uint32_t>(payload);
  for (int i = 0; i < 4; ++i) {
    out[type_at - 4 + i] = static_cast<unsigned char>(length >> (8 * i));
  }
  put_u32(out, common::crc32(out.data() + type_at, payload + 1));
}

/// Reserves room for `bytes` more, keeping the vector's geometric
/// growth when one buffer collects many frames.
void reserve_more(std::vector<unsigned char>& out, std::size_t bytes) {
  if (out.capacity() - out.size() < bytes) {
    out.reserve(std::max(out.size() + bytes, 2 * out.capacity()));
  }
}

void put_ingest_header(std::vector<unsigned char>& out,
                       std::uint32_t stream_id, std::uint64_t seq,
                       std::uint32_t count) {
  put_u32(out, stream_id);
  put_u64(out, seq);
  put_u32(out, count);
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
  const std::size_t type_at = begin_frame(out, type);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kHello);
  put_u32(out, msg.version);
  end_frame(out, type_at);
}

void append_hello_ack(std::vector<unsigned char>& out, const HelloMsg& msg) {
  const std::size_t type_at = begin_frame(out, FrameType::kHelloAck);
  put_u32(out, msg.version);
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kOpenStream);
  out.push_back(msg.flags);
  put_u32(out, static_cast<std::uint32_t>(msg.name.size()));
  out.insert(out.end(), msg.name.begin(), msg.name.end());
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kStreamOpened);
  put_u32(out, msg.stream_id);
  put_u64(out, msg.next_seq);
  end_frame(out, type_at);
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
  reserve_more(out, kFrameOverhead + kIngestHeader +
                        events.size() * storage::kEventRecordSize);
  const std::size_t type_at = begin_frame(out, FrameType::kIngestEvents);
  put_ingest_header(out, stream_id, seq,
                    static_cast<std::uint32_t>(events.size()));
  std::size_t at = out.size();
  out.resize(at + events.size() * storage::kEventRecordSize);
  for (const bgl::Event& event : events) {
    storage::encode_event(event, out.data() + at);
    at += storage::kEventRecordSize;
  }
  end_frame(out, type_at);
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
  std::size_t payload = kIngestHeader;
  for (const bgl::RasRecord& record : records) {
    payload += logio::binary_serialized_size(record);
  }
  reserve_more(out, kFrameOverhead + payload);
  const std::size_t type_at = begin_frame(out, FrameType::kIngestRecords);
  put_ingest_header(out, stream_id, seq,
                    static_cast<std::uint32_t>(records.size()));
  for (const bgl::RasRecord& record : records) {
    logio::append_record_frame(out, record);
  }
  end_frame(out, type_at);
}

std::optional<CheckedIngestRecords> check_ingest_records(
    std::span<const unsigned char> payload) {
  ByteReader reader(payload);
  CheckedIngestRecords msg;
  msg.stream_id = reader.u32();
  msg.seq = reader.u64();
  msg.count = reader.u32();
  if (!reader.ok()) return std::nullopt;
  msg.frames = payload.subspan(kIngestHeader);
  const unsigned char* cursor = msg.frames.data();
  std::size_t left = msg.frames.size();
  for (std::uint32_t i = 0; i < msg.count; ++i) {
    std::size_t consumed = 0;
    if (logio::check_record_frame(cursor, left, &consumed) !=
        logio::RecordFrameStatus::kOk) {
      return std::nullopt;
    }
    const TimeSec time = logio::record_frame_time(cursor);
    if (i == 0) {
      msg.first_time = time;
    } else if (time < msg.last_time) {
      msg.ordered = false;
    }
    msg.last_time = time;
    cursor += consumed;
    left -= consumed;
  }
  if (left != 0) return std::nullopt;
  return msg;
}

std::optional<IngestRecordsMsg> decode_ingest_records(
    std::span<const unsigned char> payload) {
  const auto checked = check_ingest_records(payload);
  if (!checked) return std::nullopt;
  IngestRecordsMsg msg;
  msg.stream_id = checked->stream_id;
  msg.seq = checked->seq;
  // Sized only now: check_ingest_records found `count` whole frames.
  msg.records.resize(checked->count);
  std::size_t offset = 0;
  for (bgl::RasRecord& record : msg.records) {
    offset += logio::read_record_frame(checked->frames.data() + offset,
                                       &record);
  }
  return msg;
}

// ---- INGEST_ACK / RETRY_AFTER -------------------------------------------

void append_ingest_ack(std::vector<unsigned char>& out,
                       const IngestAckMsg& msg) {
  const std::size_t type_at = begin_frame(out, FrameType::kIngestAck);
  put_u32(out, msg.stream_id);
  put_u64(out, msg.next_seq);
  put_u32(out, msg.queue_free);
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kRetryAfter);
  put_u32(out, msg.stream_id);
  put_u64(out, msg.expected_seq);
  put_u32(out, msg.retry_ms);
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kWarning);
  put_u32(out, msg.stream_id);
  put_i64(out, w.issued_at);
  put_i64(out, w.deadline);
  std::uint8_t flags = 0;
  if (w.category.has_value()) flags |= kWarnHasCategory;
  if (w.location.has_value()) flags |= kWarnHasLocation;
  out.push_back(flags);
  put_u32(out, w.category.has_value() ? *w.category : 0);
  put_u32(out, w.location.has_value() ? w.location->packed() : 0);
  put_u64(out, w.rule_id);
  out.push_back(static_cast<unsigned char>(w.source));
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kFinishStream);
  put_u32(out, msg.stream_id);
  put_u64(out, msg.seq);
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kFinished);
  put_stream_stats(out, msg);
  end_frame(out, type_at);
}

void append_stats_reply(std::vector<unsigned char>& out,
                        const StreamStatsMsg& msg) {
  const std::size_t type_at = begin_frame(out, FrameType::kStatsReply);
  put_stream_stats(out, msg);
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kStats);
  put_u32(out, msg.stream_id);
  end_frame(out, type_at);
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
  const std::size_t type_at = begin_frame(out, FrameType::kError);
  put_u16(out, static_cast<std::uint16_t>(msg.code));
  put_u32(out, msg.stream_id);
  put_u32(out, static_cast<std::uint32_t>(msg.message.size()));
  out.insert(out.end(), msg.message.begin(), msg.message.end());
  end_frame(out, type_at);
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
