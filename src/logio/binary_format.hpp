// Binary serialization of raw RAS logs — the compact sibling of
// text_format.  Same data model (RasRecord, Table 1), ~3x smaller and
// an order of magnitude faster to parse, with per-record CRC-32 so a
// truncated or corrupt stream is detected at the exact record.
//
// Stream layout (all integers little-endian):
//   header:  magic "DMLRAW1\0" | version u32 | machine_len u32 | machine
//   record:  record_id u64 | event_time i64 | job_id u32 |
//            location u32 | event_type u8 | facility u8 | severity u8 |
//            pad u8 | entry_len u32 | entry_data bytes |
//            crc32 u32 (over everything since record_id)
//
// This is the raw-record transport (`dmlfp generate --format binary`);
// the categorized-event data plane has its own fixed-stride format in
// storage/format.hpp.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "logio/record_sink.hpp"
#include "logio/text_format.hpp"

namespace dml::logio {

inline constexpr unsigned char kBinaryLogMagic[8] = {'D', 'M', 'L', 'R',
                                                     'A', 'W', '1', '\0'};
inline constexpr std::uint32_t kBinaryLogVersion = 1;
/// Upper bound accepted for one ENTRY_DATA field; anything larger is
/// treated as corruption rather than allocated.
inline constexpr std::uint32_t kMaxEntryData = 1u << 20;

void write_binary_log(std::ostream& out, std::string_view machine,
                      const std::vector<bgl::RasRecord>& records);

/// Reads a full binary log; throws std::runtime_error on a malformed
/// header or record (with the record ordinal and byte offset).
LogFile read_binary_log(std::istream& in);

/// Serializes records to a binary-format stream (header written up
/// front) — the binary counterpart of StreamSink.
class BinaryStreamSink final : public RecordSink {
 public:
  BinaryStreamSink(std::ostream& out, std::string_view machine);
  void consume(const bgl::RasRecord& record) override;

  std::uint64_t records_written() const { return records_written_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ostream& out_;
  std::vector<unsigned char> scratch_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Incremental binary reader, API-compatible with RecordReader so
/// loaders can switch on the input format.  The `logio.parse` failpoint
/// applies here too: corrupt flips a frame byte (the CRC then rejects
/// the record per the OnError policy), drop skips the record.
///
/// OnError::kSkip note: unlike the line-oriented text reader, a
/// variable-length binary stream cannot resynchronise past a bad
/// frame; a rejected record is counted and the stream ends there (the
/// torn-tail contract of the storage layer).
class BinaryRecordReader {
 public:
  using OnError = RecordReader::OnError;

  explicit BinaryRecordReader(std::istream& in,
                              OnError on_error = OnError::kThrow);

  const std::string& machine() const { return machine_; }

  /// Next record, or nullopt at end of stream.
  std::optional<bgl::RasRecord> next();

  /// Records consumed so far (the binary analogue of line_number()).
  std::uint64_t record_number() const { return stats_.lines; }
  const ReadStats& read_stats() const { return stats_; }

 private:
  std::istream& in_;
  OnError on_error_;
  std::string machine_;
  std::uint64_t offset_ = 0;  ///< stream offset of the next frame
  /// The frame being read, checked by decode_record_frame.
  std::vector<unsigned char> frame_;
  bool done_ = false;
  ReadStats stats_;
};

/// Exact serialized size in bytes of one record in this format.
std::size_t binary_serialized_size(const bgl::RasRecord& record);

// ---- Record-frame codec -------------------------------------------------
// The per-record byte layout of the stream (prefix + ENTRY_DATA + CRC
// trailer), exposed as buffer-level functions so other transports — the
// network wire protocol's INGEST_RECORDS frames — carry records in
// exactly the on-disk encoding.  BinaryStreamSink and the stream reader
// are thin wrappers over these.

/// Appends one framed record to `out`.
void append_record_frame(std::vector<unsigned char>& out,
                         const bgl::RasRecord& record);

enum class RecordFrameStatus {
  kOk,        ///< the frame is whole and valid; *consumed = its length
  kNeedMore,  ///< buffer ends mid-frame (*consumed = 0)
  kBad,       ///< CRC or field validation failed (*reason says why)
};

/// Checks the framed record at the front of [data, data + size) — its
/// CRC and every enum field — without reading it.  The one validation
/// of a record frame: decode_record_frame (and through it the stream
/// reader) and the wire's INGEST_RECORDS decoders are built on it.
RecordFrameStatus check_record_frame(const unsigned char* data,
                                     std::size_t size, std::size_t* consumed,
                                     std::string* reason = nullptr);

/// Reads a frame that check_record_frame accepted into `*out`, reusing
/// its ENTRY_DATA capacity.  Returns the frame's length.
std::size_t read_record_frame(const unsigned char* frame,
                              bgl::RasRecord* out);

/// EVENT_TIME of a frame that check_record_frame accepted.
TimeSec record_frame_time(const unsigned char* frame);

/// check_record_frame, then read_record_frame on success.
RecordFrameStatus decode_record_frame(const unsigned char* data,
                                      std::size_t size, bgl::RasRecord* out,
                                      std::size_t* consumed,
                                      std::string* reason = nullptr);

}  // namespace dml::logio
