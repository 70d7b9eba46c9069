#include "logio/binary_format.hpp"

#include <cstring>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/failpoint.hpp"

namespace dml::logio {
namespace {

/// Fixed bytes of one frame before ENTRY_DATA.
constexpr std::size_t kFramePrefix = 32;
constexpr std::size_t kHeaderFixed = 16;  // magic + version + machine_len

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t get_u64(const unsigned char* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         static_cast<std::uint64_t>(get_u32(in + 4)) << 32;
}

void encode_prefix(const bgl::RasRecord& record,
                   unsigned char out[kFramePrefix]) {
  put_u64(out, record.record_id);
  put_u64(out + 8, static_cast<std::uint64_t>(record.event_time));
  put_u32(out + 16, record.job_id);
  put_u32(out + 20, record.location.packed());
  out[24] = static_cast<unsigned char>(record.event_type);
  out[25] = static_cast<unsigned char>(record.facility);
  out[26] = static_cast<unsigned char>(record.severity);
  out[27] = 0;
  put_u32(out + 28, static_cast<std::uint32_t>(record.entry_data.size()));
}

}  // namespace

std::size_t binary_serialized_size(const bgl::RasRecord& record) {
  return kFramePrefix + record.entry_data.size() + 4;
}

void append_record_frame(std::vector<unsigned char>& out,
                         const bgl::RasRecord& record) {
  const std::size_t entry_len = record.entry_data.size();
  const std::size_t start = out.size();
  out.resize(start + kFramePrefix + entry_len + 4);
  unsigned char* frame = out.data() + start;
  encode_prefix(record, frame);
  std::memcpy(frame + kFramePrefix, record.entry_data.data(), entry_len);
  put_u32(frame + kFramePrefix + entry_len,
          common::crc32(frame, kFramePrefix + entry_len));
}

RecordFrameStatus check_record_frame(const unsigned char* data,
                                     std::size_t size, std::size_t* consumed,
                                     std::string* reason) {
  const auto bad = [&](const char* why) {
    if (reason != nullptr) *reason = why;
    return RecordFrameStatus::kBad;
  };
  *consumed = 0;
  if (size < kFramePrefix) return RecordFrameStatus::kNeedMore;
  const std::uint32_t entry_len = get_u32(data + 28);
  if (entry_len > kMaxEntryData) return bad("entry length exceeds limit");
  const std::size_t frame = kFramePrefix + entry_len + 4;
  if (size < frame) return RecordFrameStatus::kNeedMore;

  const std::uint32_t crc = common::crc32(data, kFramePrefix + entry_len);
  if (crc != get_u32(data + kFramePrefix + entry_len)) {
    return bad("record CRC mismatch");
  }
  if (data[24] > 2) return bad("bad event type");
  if (data[25] >= bgl::kNumFacilities) return bad("bad facility");
  if (data[26] >= kNumSeverities) return bad("bad severity");
  *consumed = frame;
  return RecordFrameStatus::kOk;
}

std::size_t read_record_frame(const unsigned char* frame,
                              bgl::RasRecord* out) {
  out->record_id = get_u64(frame);
  out->event_time = static_cast<TimeSec>(get_u64(frame + 8));
  out->job_id = get_u32(frame + 16);
  out->location = bgl::Location::from_packed(get_u32(frame + 20));
  out->event_type = static_cast<bgl::EventType>(frame[24]);
  out->facility = static_cast<bgl::Facility>(frame[25]);
  out->severity = static_cast<Severity>(frame[26]);
  const std::uint32_t entry_len = get_u32(frame + 28);
  out->entry_data.assign(reinterpret_cast<const char*>(frame) + kFramePrefix,
                         entry_len);
  return kFramePrefix + entry_len + 4;
}

TimeSec record_frame_time(const unsigned char* frame) {
  return static_cast<TimeSec>(get_u64(frame + 8));
}

RecordFrameStatus decode_record_frame(const unsigned char* data,
                                      std::size_t size, bgl::RasRecord* out,
                                      std::size_t* consumed,
                                      std::string* reason) {
  const RecordFrameStatus status =
      check_record_frame(data, size, consumed, reason);
  if (status == RecordFrameStatus::kOk) read_record_frame(data, out);
  return status;
}

BinaryStreamSink::BinaryStreamSink(std::ostream& out, std::string_view machine)
    : out_(out) {
  unsigned char header[kHeaderFixed];
  std::memcpy(header, kBinaryLogMagic, 8);
  put_u32(header + 8, kBinaryLogVersion);
  put_u32(header + 12, static_cast<std::uint32_t>(machine.size()));
  out_.write(reinterpret_cast<const char*>(header), kHeaderFixed);
  out_.write(machine.data(), static_cast<std::streamsize>(machine.size()));
  bytes_written_ = kHeaderFixed + machine.size();
}

void BinaryStreamSink::consume(const bgl::RasRecord& record) {
  scratch_.clear();
  append_record_frame(scratch_, record);
  out_.write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  ++records_written_;
  bytes_written_ += scratch_.size();
}

void write_binary_log(std::ostream& out, std::string_view machine,
                      const std::vector<bgl::RasRecord>& records) {
  BinaryStreamSink sink(out, machine);
  for (const auto& record : records) sink.consume(record);
  out.flush();
}

BinaryRecordReader::BinaryRecordReader(std::istream& in, OnError on_error)
    : in_(in), on_error_(on_error) {
  unsigned char header[kHeaderFixed];
  in_.read(reinterpret_cast<char*>(header), kHeaderFixed);
  if (in_.gcount() != kHeaderFixed ||
      std::memcmp(header, kBinaryLogMagic, 8) != 0) {
    throw std::runtime_error("binary log: bad magic (not a DMLRAW1 stream)");
  }
  const std::uint32_t version = get_u32(header + 8);
  if (version != kBinaryLogVersion) {
    throw std::runtime_error("binary log: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t machine_len = get_u32(header + 12);
  if (machine_len > 4096) {
    throw std::runtime_error("binary log: implausible machine name length");
  }
  machine_.resize(machine_len);
  in_.read(machine_.data(), machine_len);
  if (in_.gcount() != static_cast<std::streamsize>(machine_len)) {
    throw std::runtime_error("binary log: truncated header");
  }
  offset_ = kHeaderFixed + machine_len;
}

std::optional<bgl::RasRecord> BinaryRecordReader::next() {
  while (!done_) {
    frame_.resize(kFramePrefix);
    in_.read(reinterpret_cast<char*>(frame_.data()), kFramePrefix);
    const std::streamsize got = in_.gcount();
    if (got == 0) return std::nullopt;  // clean end of stream

    ++stats_.lines;
    const std::uint64_t ordinal = stats_.lines;
    const auto reject = [&](const std::string& reason)
        -> std::optional<bgl::RasRecord> {
      if (on_error_ == OnError::kThrow) {
        throw std::runtime_error("binary log: " + reason + " (record " +
                                 std::to_string(ordinal) + ", offset " +
                                 std::to_string(offset_) + ")");
      }
      stats_.note_skip(static_cast<std::size_t>(ordinal), reason);
      done_ = true;  // cannot resynchronise a variable-length stream
      return std::nullopt;
    };

    if (got != static_cast<std::streamsize>(kFramePrefix)) {
      return reject("truncated record prefix");
    }

    const common::FailAction action =
        common::failpoint(common::failpoints::kLogioParse);
    if (action == common::FailAction::kCorrupt) {
      frame_[0] ^= 0xFF;  // the CRC check below must now reject it
    }

    const std::uint32_t entry_len = get_u32(frame_.data() + 28);
    if (entry_len > kMaxEntryData) {
      return reject("entry length " + std::to_string(entry_len) +
                    " exceeds limit");
    }
    const std::size_t rest = std::size_t{entry_len} + 4;
    frame_.resize(kFramePrefix + rest);
    in_.read(reinterpret_cast<char*>(frame_.data() + kFramePrefix),
             static_cast<std::streamsize>(rest));
    if (in_.gcount() != static_cast<std::streamsize>(rest)) {
      return reject("truncated record body");
    }
    offset_ += frame_.size();

    bgl::RasRecord record;
    std::size_t consumed = 0;
    std::string reason;
    if (decode_record_frame(frame_.data(), frame_.size(), &record, &consumed,
                            &reason) != RecordFrameStatus::kOk) {
      return reject(reason);
    }
    if (action == common::FailAction::kDrop) {
      stats_.note_skip(static_cast<std::size_t>(ordinal),
                       "record dropped by failpoint");
      continue;  // frame fully consumed; the stream is still aligned
    }
    ++stats_.parsed;
    return record;
  }
  return std::nullopt;
}

LogFile read_binary_log(std::istream& in) {
  BinaryRecordReader reader(in);
  LogFile file;
  file.machine = reader.machine();
  while (auto record = reader.next()) {
    file.records.push_back(std::move(*record));
  }
  return file;
}

}  // namespace dml::logio
