// Wire-protocol codec: golden byte-layout vectors (the frame grammar of
// DESIGN.md §12 is a compatibility contract), seeded round-trip fuzz
// over every message type, and a truncation/corruption sweep asserting
// the precise rejection semantics — a short buffer is kNeedMore, a
// flipped bit is kBad at that exact frame, and nothing corrupt ever
// decodes — and a seeded byte mutation of every message and frame that
// no decoder may throw on.  Mirrors tests/logio/test_binary_format.cpp.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "bgl/location.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "logio/binary_format.hpp"
#include "storage/format.hpp"
#include "support/test_fixtures.hpp"

namespace dml::net {
namespace {

// ---- Golden vectors ----------------------------------------------------
// Produced by the codec at protocol version 1 and frozen: any layout
// change must bump kProtocolVersion, not silently re-golden these.

const std::vector<unsigned char> kGoldenHello = {
    0x04, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0xc8,
    0xb9, 0xfe, 0x43};

const std::vector<unsigned char> kGoldenStreamOpened = {
    0x0c, 0x00, 0x00, 0x00, 0x04, 0x07, 0x00, 0x00, 0x00, 0x2a,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0xbb, 0xe3,
    0xd3};

const std::vector<unsigned char> kGoldenRetryAfter = {
    0x10, 0x00, 0x00, 0x00, 0x08, 0x03, 0x00, 0x00, 0x00, 0x09,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0xcb, 0xf8, 0x97, 0x31};

const std::vector<unsigned char> kGoldenWarning = {
    0x26, 0x00, 0x00, 0x00, 0x09, 0x01, 0x00, 0x00, 0x00, 0xe8,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x05, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x11, 0x00, 0x00, 0x00,
    0xf9, 0x02, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x22, 0xe5, 0x23, 0x28};

const std::vector<unsigned char> kGoldenIngestEvents = {
    0x40, 0x00, 0x00, 0x00, 0x05, 0x02, 0x00, 0x00, 0x00, 0x05,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0xa8, 0xe8, 0xcb, 0x2f, 0xa0, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x65, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x09, 0x00, 0x01, 0x00, 0x79, 0xee, 0x3a, 0xaa, 0xca,
    0x28, 0x9d, 0x42};

const std::vector<unsigned char> kGoldenIngestRecords = {
    0x5d, 0x00, 0x00, 0x00, 0x06, 0x02, 0x00, 0x00, 0x00, 0x05,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x14, 0x00, 0x00, 0x05, 0x04, 0x00, 0x05,
    0x00, 0x00, 0x00, 0x65, 0x64, 0x72, 0x61, 0x6d, 0xa8, 0x53,
    0xac, 0xec, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xa0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00,
    0x00, 0x00, 0x65, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x97, 0x08, 0x6f, 0x00, 0x88, 0xa3,
    0x8b, 0xaf};

predict::Warning golden_warning() {
  predict::Warning w;
  w.issued_at = 1000;
  w.deadline = 1300;
  w.category = static_cast<CategoryId>(17);
  w.location = bgl::Location::compute_chip(0, 1, 7, 12, 1);
  w.rule_id = 0xDEADBEEFu;
  w.source = static_cast<learners::RuleSource>(0);
  return w;
}

std::vector<bgl::Event> golden_events() {
  bgl::Event e1;
  e1.time = 100;
  e1.category = 5;
  e1.location = bgl::Location::midplane_scope(0, 1);
  bgl::Event e2;
  e2.time = 160;
  e2.category = 9;
  e2.fatal = true;
  e2.location = bgl::Location::compute_chip(0, 0, 3, 2, 1);
  return {e1, e2};
}

/// Two raw records, one with an empty ENTRY_DATA (the 36-byte minimum
/// record frame).
std::vector<bgl::RasRecord> golden_records() {
  bgl::RasRecord r1;
  r1.record_id = 1;
  r1.event_time = 100;
  r1.job_id = 7;
  r1.location = bgl::Location::midplane_scope(0, 1);
  r1.event_type = bgl::EventType::kRas;
  r1.facility = bgl::Facility::kKernel;
  r1.severity = Severity::kFatal;
  r1.entry_data = "edram";
  bgl::RasRecord r2;
  r2.record_id = 2;
  r2.event_time = 160;
  r2.job_id = 9;
  r2.location = bgl::Location::compute_chip(0, 0, 3, 2, 1);
  r2.event_type = bgl::EventType::kMmcs;
  r2.facility = bgl::Facility::kMonitor;
  r2.severity = Severity::kInfo;
  return {r1, r2};
}

/// The payload of one encoded frame.
template <typename Append>
std::vector<unsigned char> payload_of(Append append) {
  std::vector<unsigned char> frame;
  append(frame);
  const DecodedFrame decoded = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(decoded.status, DecodeStatus::kFrame);
  return {decoded.payload.begin(), decoded.payload.end()};
}

/// Hand-assembles a frame per the documented grammar, independent of
/// append_frame — for crafting invalid frames the encoder refuses to
/// emit (unknown types) and for validating the grammar itself.
std::vector<unsigned char> raw_frame(std::uint8_t type,
                                     std::vector<unsigned char> payload,
                                     std::uint32_t length_override =
                                         0xffffffff) {
  std::vector<unsigned char> out;
  const std::uint32_t length =
      length_override != 0xffffffff
          ? length_override
          : static_cast<std::uint32_t>(payload.size());
  put_u32(out, length);
  out.push_back(type);
  std::uint32_t crc = common::crc32(&type, 1);
  crc = common::crc32(payload.data(), payload.size(), crc);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc);
  return out;
}

TEST(WireGoldenTest, HelloFrameLayout) {
  std::vector<unsigned char> out;
  append_hello(out, HelloMsg{});
  EXPECT_EQ(out, kGoldenHello);

  // Structural re-derivation: length prefix covers the payload only,
  // the CRC covers type byte + payload.
  ASSERT_EQ(out.size(), 4u + 1u + 4u + 4u);
  EXPECT_EQ(out[0], 4u);  // payload_len (LE) = 4
  EXPECT_EQ(out[4], static_cast<unsigned char>(FrameType::kHello));
  const std::uint32_t crc = common::crc32(out.data() + 4, 1u + 4u);
  EXPECT_EQ(out[9], static_cast<unsigned char>(crc & 0xff));
  EXPECT_EQ(out[12], static_cast<unsigned char>((crc >> 24) & 0xff));
}

TEST(WireGoldenTest, ControlFrameLayouts) {
  std::vector<unsigned char> out;
  append_stream_opened(out, StreamOpenedMsg{7, 42});
  EXPECT_EQ(out, kGoldenStreamOpened);

  out.clear();
  append_retry_after(out, RetryAfterMsg{3, 9, 2});
  EXPECT_EQ(out, kGoldenRetryAfter);
}

TEST(WireGoldenTest, WarningFrameLayout) {
  std::vector<unsigned char> out;
  append_warning(out, WarningMsg{1, golden_warning()});
  EXPECT_EQ(out, kGoldenWarning);

  const DecodedFrame frame = decode_frame(out.data(), out.size());
  ASSERT_EQ(frame.status, DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kWarning);
  const auto msg = decode_warning(frame.payload);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->stream_id, 1u);
  EXPECT_EQ(msg->warning.issued_at, 1000);
  EXPECT_EQ(msg->warning.deadline, 1300);
  ASSERT_TRUE(msg->warning.category.has_value());
  EXPECT_EQ(*msg->warning.category, 17);
  ASSERT_TRUE(msg->warning.location.has_value());
  EXPECT_EQ(msg->warning.location->packed(),
            bgl::Location::compute_chip(0, 1, 7, 12, 1).packed());
  EXPECT_EQ(msg->warning.rule_id, 0xDEADBEEFu);
}

TEST(WireGoldenTest, IngestEventsFrameEmbedsStorageRecords) {
  std::vector<unsigned char> out;
  const auto events = golden_events();
  append_ingest_events(out, 2, 5, events);
  EXPECT_EQ(out, kGoldenIngestEvents);

  // Batch payload = u32 stream | u64 seq | u32 count | count 24-byte
  // storage-plane records; each record region is byte-identical to
  // storage::format::encode_event — the wire and the on-disk segment
  // share one event encoding.
  ASSERT_EQ(out.size(),
            kFrameOverhead + 16 + events.size() * storage::kEventRecordSize);
  unsigned char record[storage::kEventRecordSize];
  storage::encode_event(events[0], record);
  EXPECT_EQ(std::vector<unsigned char>(out.begin() + 21,
                                       out.begin() + 21 +
                                           storage::kEventRecordSize),
            std::vector<unsigned char>(record,
                                       record + storage::kEventRecordSize));
}

TEST(WireGoldenTest, IngestRecordsFrameEmbedsBinaryLogRecords) {
  std::vector<unsigned char> out;
  const auto records = golden_records();
  append_ingest_records(out, 2, 5, records);
  EXPECT_EQ(out, kGoldenIngestRecords);

  // Batch payload = u32 stream | u64 seq | u32 count | count binary-log
  // record frames; each record region is byte-identical to
  // logio::append_record_frame — the wire and the binary log share one
  // record encoding.
  std::size_t at = kFrameOverhead - 4 + 16;
  for (const bgl::RasRecord& record : records) {
    std::vector<unsigned char> frame;
    logio::append_record_frame(frame, record);
    ASSERT_LE(at + frame.size(), out.size());
    EXPECT_EQ(std::vector<unsigned char>(out.begin() + at,
                                         out.begin() + at + frame.size()),
              frame);
    at += frame.size();
  }
  EXPECT_EQ(at + 4, out.size());  // then only the frame CRC

  const DecodedFrame decoded = decode_frame(out.data(), out.size());
  ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
  const auto checked = check_ingest_records(decoded.payload);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(checked->count, 2u);
  EXPECT_EQ(checked->first_time, 100);
  EXPECT_EQ(checked->last_time, 160);
  EXPECT_TRUE(checked->ordered);
  const auto msg = decode_ingest_records(decoded.payload);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->records, records);
}

// ---- Round-trip fuzz ---------------------------------------------------

bgl::Event random_event(Rng& rng, TimeSec& t) {
  bgl::Event event;
  t += static_cast<TimeSec>(rng.uniform_index(600));
  event.time = t;
  event.category = static_cast<CategoryId>(1 + rng.uniform_index(200));
  event.job_id = static_cast<JobId>(rng.uniform_index(100));
  event.location = bgl::Location::compute_chip(
      static_cast<int>(rng.uniform_index(8)),
      static_cast<int>(rng.uniform_index(2)),
      static_cast<int>(rng.uniform_index(16)),
      static_cast<int>(rng.uniform_index(16)),
      static_cast<int>(rng.uniform_index(2)));
  event.fatal = rng.uniform_index(10) == 0;
  return event;
}

predict::Warning random_warning(Rng& rng) {
  predict::Warning w;
  w.issued_at = static_cast<TimeSec>(rng.uniform_index(1 << 30));
  w.deadline = w.issued_at + static_cast<TimeSec>(rng.uniform_index(3600));
  if (rng.uniform_index(2) == 0) {
    w.category = static_cast<CategoryId>(rng.uniform_index(1 << 16));
  }
  if (rng.uniform_index(2) == 0) {
    w.location = bgl::Location::midplane_scope(
        static_cast<int>(rng.uniform_index(8)),
        static_cast<int>(rng.uniform_index(2)));
  }
  w.rule_id = rng.next_u64();
  const std::size_t source = rng.uniform_index(learners::kRuleSources.size());
  w.source = learners::kRuleSources[source];
  return w;
}

bool warnings_equal(const predict::Warning& a, const predict::Warning& b) {
  return a.issued_at == b.issued_at && a.deadline == b.deadline &&
         a.category == b.category && a.location == b.location &&
         a.rule_id == b.rule_id && a.source == b.source;
}

TEST(WireFuzzTest, EveryMessageTypeRoundTrips) {
  Rng rng(testing::fuzz_seed(12001));
  for (int round = 0; round < 200; ++round) {
    std::vector<unsigned char> out;
    switch (rng.uniform_index(9)) {
      case 0: {
        const HelloMsg msg{static_cast<std::uint32_t>(rng.next_u64())};
        rng.uniform_index(2) == 0 ? append_hello(out, msg)
                                  : append_hello_ack(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_hello(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->version, msg.version);
        break;
      }
      case 1: {
        OpenStreamMsg msg;
        msg.flags = static_cast<std::uint8_t>(1 + rng.uniform_index(3));
        msg.name.assign(1 + rng.uniform_index(256),
                        static_cast<char>('a' + rng.uniform_index(26)));
        append_open_stream(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_open_stream(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->flags, msg.flags);
        EXPECT_EQ(got->name, msg.name);
        break;
      }
      case 2: {
        const StreamOpenedMsg msg{static_cast<std::uint32_t>(rng.next_u64()),
                                  rng.next_u64()};
        append_stream_opened(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_stream_opened(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->stream_id, msg.stream_id);
        EXPECT_EQ(got->next_seq, msg.next_seq);
        break;
      }
      case 3: {
        std::vector<bgl::Event> events;
        TimeSec t = static_cast<TimeSec>(rng.uniform_index(1 << 20));
        const std::size_t n = rng.uniform_index(64);
        for (std::size_t i = 0; i < n; ++i) {
          events.push_back(random_event(rng, t));
        }
        const std::uint32_t stream = static_cast<std::uint32_t>(rng.next_u64());
        const std::uint64_t seq = rng.next_u64();
        append_ingest_events(out, stream, seq, events);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_ingest_events(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->stream_id, stream);
        EXPECT_EQ(got->seq, seq);
        ASSERT_EQ(got->events.size(), events.size());
        for (std::size_t i = 0; i < events.size(); ++i) {
          EXPECT_EQ(got->events[i], events[i]) << "event " << i;
        }
        break;
      }
      case 4: {
        const IngestAckMsg msg{static_cast<std::uint32_t>(rng.next_u64()),
                               rng.next_u64(),
                               static_cast<std::uint32_t>(rng.next_u64())};
        append_ingest_ack(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_ingest_ack(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->stream_id, msg.stream_id);
        EXPECT_EQ(got->next_seq, msg.next_seq);
        EXPECT_EQ(got->queue_free, msg.queue_free);
        break;
      }
      case 5: {
        const WarningMsg msg{static_cast<std::uint32_t>(rng.next_u64()),
                             random_warning(rng)};
        append_warning(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_warning(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->stream_id, msg.stream_id);
        EXPECT_TRUE(warnings_equal(got->warning, msg.warning));
        break;
      }
      case 6: {
        StreamStatsMsg msg;
        msg.stream_id = static_cast<std::uint32_t>(rng.next_u64());
        msg.events_ingested = rng.next_u64();
        msg.events_served = rng.next_u64();
        msg.records_rejected = rng.next_u64();
        msg.warnings_emitted = rng.next_u64();
        msg.warnings_dropped = rng.next_u64();
        msg.retrainings = rng.next_u64();
        msg.batches_refused = rng.next_u64();
        msg.finished = static_cast<std::uint8_t>(rng.uniform_index(2));
        rng.uniform_index(2) == 0 ? append_finished(out, msg)
                                  : append_stats_reply(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_stream_stats(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->events_ingested, msg.events_ingested);
        EXPECT_EQ(got->warnings_dropped, msg.warnings_dropped);
        EXPECT_EQ(got->batches_refused, msg.batches_refused);
        EXPECT_EQ(got->finished, msg.finished);
        break;
      }
      case 7: {
        const RetryAfterMsg msg{static_cast<std::uint32_t>(rng.next_u64()),
                                rng.next_u64(),
                                static_cast<std::uint32_t>(rng.next_u64())};
        append_retry_after(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_retry_after(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->expected_seq, msg.expected_seq);
        EXPECT_EQ(got->retry_ms, msg.retry_ms);
        break;
      }
      default: {
        ErrorMsg msg;
        msg.code = static_cast<ErrorCode>(1 + rng.uniform_index(5));
        msg.stream_id = static_cast<std::uint32_t>(rng.next_u64());
        msg.message.assign(rng.uniform_index(80),
                           static_cast<char>('!' + rng.uniform_index(90)));
        append_error(out, msg);
        const DecodedFrame frame = decode_frame(out.data(), out.size());
        ASSERT_EQ(frame.status, DecodeStatus::kFrame);
        const auto got = decode_error(frame.payload);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->code, msg.code);
        EXPECT_EQ(got->message, msg.message);
        break;
      }
    }
  }
}

// ---- Truncation / corruption sweep -------------------------------------

std::vector<unsigned char> sample_stream() {
  std::vector<unsigned char> out;
  append_hello(out, HelloMsg{});
  append_open_stream(out, OpenStreamMsg{kOpenIngest | kOpenSubscribe, "anl"});
  append_ingest_events(out, 2, 5, golden_events());
  append_warning(out, WarningMsg{1, golden_warning()});
  append_bye(out);
  return out;
}

TEST(WireRejectionTest, EveryTruncationIsNeedMoreNeverBad) {
  const auto bytes = sample_stream();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    // Decode greedily from the front of the truncated buffer: complete
    // frames decode, then the tail must report kNeedMore — truncation
    // is indistinguishable from "more data coming" and must never be
    // mistaken for corruption.
    std::size_t offset = 0;
    while (true) {
      const DecodedFrame frame =
          decode_frame(bytes.data() + offset, cut - offset);
      if (frame.status == DecodeStatus::kFrame) {
        offset += frame.consumed;
        continue;
      }
      ASSERT_EQ(frame.status, DecodeStatus::kNeedMore)
          << "cut at byte " << cut << " misreported: " << frame.error;
      break;
    }
  }
}

TEST(WireRejectionTest, EveryCorruptBitIsRejectedPreciselY) {
  std::vector<unsigned char> frame_bytes;
  append_warning(frame_bytes, WarningMsg{1, golden_warning()});
  for (std::size_t i = 0; i < frame_bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = frame_bytes;
      mutated[i] = static_cast<unsigned char>(mutated[i] ^ (1u << bit));
      const DecodedFrame frame =
          decode_frame(mutated.data(), mutated.size());
      if (i < 4) {
        // A flipped length byte either promises more data than present
        // (kNeedMore — harmless, the connection stalls and dies) or
        // mis-frames the CRC check (kBad).  It must never decode.
        EXPECT_NE(frame.status, DecodeStatus::kFrame)
            << "byte " << i << " bit " << bit;
      } else {
        // With an intact length, any flipped bit in type, payload, or
        // CRC trailer must be caught by the CRC (or the type check) at
        // exactly this frame.
        EXPECT_EQ(frame.status, DecodeStatus::kBad)
            << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(WireRejectionTest, OversizedLengthPrefixIsCorruptionNotAllocation) {
  std::vector<unsigned char> out = raw_frame(
      static_cast<std::uint8_t>(FrameType::kHello), {0x01, 0x00, 0x00, 0x00},
      static_cast<std::uint32_t>(kMaxFramePayload) + 1);
  const DecodedFrame frame = decode_frame(out.data(), out.size());
  EXPECT_EQ(frame.status, DecodeStatus::kBad);
  EXPECT_NE(frame.error.find("payload"), std::string::npos);
}

TEST(WireRejectionTest, UnknownFrameTypeIsBadEvenWithValidCrc) {
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{16},
                                  std::uint8_t{0xff}}) {
    const auto out = raw_frame(type, {0xaa, 0xbb});
    const DecodedFrame frame = decode_frame(out.data(), out.size());
    EXPECT_EQ(frame.status, DecodeStatus::kBad) << "type " << int{type};
  }
}

TEST(WireRejectionTest, HostileRecordCountIsRefusedNotAllocated) {
  // A 25-byte frame claiming 2^32 - 1 records: nothing may be sized
  // from the count before the bytes present bound it.
  std::vector<unsigned char> payload;
  put_u32(payload, 2);
  put_u64(payload, 5);
  put_u32(payload, 0xFFFFFFFFu);
  const auto frame =
      raw_frame(static_cast<std::uint8_t>(FrameType::kIngestRecords), payload);
  ASSERT_EQ(frame.size(), 25u);
  const DecodedFrame decoded = decode_frame(frame.data(), frame.size());
  ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
  EXPECT_NO_THROW({
    EXPECT_FALSE(check_ingest_records(decoded.payload).has_value());
    EXPECT_FALSE(decode_ingest_records(decoded.payload).has_value());
  });
  // The same count ahead of one genuine record.
  logio::append_record_frame(payload, golden_records()[0]);
  EXPECT_NO_THROW({
    EXPECT_FALSE(check_ingest_records(payload).has_value());
    EXPECT_FALSE(decode_ingest_records(payload).has_value());
  });
}

TEST(WireRejectionTest, MessageDecodersRejectSemanticGarbage) {
  // OPEN_STREAM: no intent flags, unknown flag bits, empty name.
  std::vector<unsigned char> payload;
  payload.push_back(0);  // flags = 0
  put_u16(payload, 1);
  payload.push_back('x');
  EXPECT_FALSE(decode_open_stream(payload).has_value());
  payload[0] = 0x80;  // unknown flag bit
  EXPECT_FALSE(decode_open_stream(payload).has_value());

  std::vector<unsigned char> empty_name;
  empty_name.push_back(kOpenIngest);
  put_u16(empty_name, 0);
  EXPECT_FALSE(decode_open_stream(empty_name).has_value());

  // WARNING: a rule source beyond the enum must not round-trip, nor may
  // 3 and 4, the unassigned values of the retired classifier experts.
  std::vector<unsigned char> warning_frame;
  append_warning(warning_frame, WarningMsg{1, golden_warning()});
  const DecodedFrame frame =
      decode_frame(warning_frame.data(), warning_frame.size());
  ASSERT_EQ(frame.status, DecodeStatus::kFrame);
  std::vector<unsigned char> warning_payload(frame.payload.begin(),
                                             frame.payload.end());
  const std::size_t past_end = learners::kNumRuleSources;
  for (const std::size_t source : {std::size_t{3}, std::size_t{4}, past_end}) {
    // Last payload byte is the source enum.
    warning_payload.back() = static_cast<unsigned char>(source);
    EXPECT_FALSE(decode_warning(warning_payload).has_value()) << source;
  }

  // INGEST_EVENTS: count that disagrees with the byte count, and a
  // flipped bit inside an embedded record's own CRC region.
  std::vector<unsigned char> ingest_frame;
  append_ingest_events(ingest_frame, 2, 5, golden_events());
  const DecodedFrame ingest =
      decode_frame(ingest_frame.data(), ingest_frame.size());
  ASSERT_EQ(ingest.status, DecodeStatus::kFrame);
  std::vector<unsigned char> ingest_payload(ingest.payload.begin(),
                                            ingest.payload.end());
  auto count_mismatch = ingest_payload;
  count_mismatch[12] = 3;  // u32 count at offset 12, actual records: 2
  EXPECT_FALSE(decode_ingest_events(count_mismatch).has_value());
  auto record_corrupt = ingest_payload;
  record_corrupt.back() ^= 0x01;  // inside the last record's CRC
  EXPECT_FALSE(decode_ingest_events(record_corrupt).has_value());

  // INGEST_RECORDS: both decoders refuse every one of these.
  const auto records_payload = payload_of([](auto& out) {
    append_ingest_records(out, 2, 5, golden_records());
  });
  const auto expect_refused = [](const std::vector<unsigned char>& bad,
                                 const char* why) {
    EXPECT_FALSE(check_ingest_records(bad).has_value()) << why;
    EXPECT_FALSE(decode_ingest_records(bad).has_value()) << why;
  };
  ASSERT_TRUE(check_ingest_records(records_payload).has_value());
  // Record frames start after the 16-byte ingest header; the first is
  // a 32-byte prefix, "edram" and a 4-byte CRC.
  constexpr std::size_t kFirst = 16;
  constexpr std::size_t kSecond = kFirst + 32 + 5 + 4;
  {
    auto bad = records_payload;
    bad[12] = 3;  // count 3, records 2
    expect_refused(bad, "count above the records present");
    bad[12] = 1;  // count 1: the second record is trailing garbage
    expect_refused(bad, "count below the records present");
  }
  {
    auto bad = records_payload;
    bad[kFirst + 32 + 1] ^= 0x04;  // inside "edram", under the record CRC
    expect_refused(bad, "bit flipped in a record's CRC region");
  }
  // Out-of-range enums behind a valid record CRC: only the field check
  // can refuse them.
  const auto with_field = [&](std::size_t offset, unsigned char value) {
    auto bad = records_payload;
    bad[kSecond + offset] = value;
    const std::uint32_t crc = common::crc32(bad.data() + kSecond, 36 - 4);
    for (int i = 0; i < 4; ++i) {
      bad[kSecond + 32 + i] = static_cast<unsigned char>(crc >> (8 * i));
    }
    return bad;
  };
  expect_refused(with_field(25, 10), "facility 10");
  expect_refused(with_field(26, 6), "severity 6");
  expect_refused(with_field(24, 3), "event type 3");
  {
    auto bad = records_payload;
    const std::uint32_t too_long = logio::kMaxEntryData + 1;
    for (int i = 0; i < 4; ++i) {
      bad[kFirst + 28 + i] = static_cast<unsigned char>(too_long >> (8 * i));
    }
    expect_refused(bad, "entry length above kMaxEntryData");
  }
  {
    auto bad = records_payload;
    bad.push_back(0x00);
    expect_refused(bad, "trailing byte");
  }

  // Trailing bytes after a complete message are a framing bug.
  std::vector<unsigned char> hello_payload;
  put_u32(hello_payload, kProtocolVersion);
  hello_payload.push_back(0x00);
  EXPECT_FALSE(decode_hello(hello_payload).has_value());
}

/// Runs the decoder a frame of `type` goes to; true when it accepts.
/// The reactor's check of INGEST_RECORDS must accept exactly what
/// decoding accepts.
bool decode_as(FrameType type, std::span<const unsigned char> payload) {
  switch (type) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
      return decode_hello(payload).has_value();
    case FrameType::kOpenStream:
      return decode_open_stream(payload).has_value();
    case FrameType::kStreamOpened:
      return decode_stream_opened(payload).has_value();
    case FrameType::kIngestEvents:
      return decode_ingest_events(payload).has_value();
    case FrameType::kIngestRecords: {
      const auto checked = check_ingest_records(payload);
      const auto decoded = decode_ingest_records(payload);
      EXPECT_EQ(checked.has_value(), decoded.has_value());
      if (checked && decoded) {
        EXPECT_EQ(checked->count, decoded->records.size());
      }
      return decoded.has_value();
    }
    case FrameType::kIngestAck:
      return decode_ingest_ack(payload).has_value();
    case FrameType::kRetryAfter:
      return decode_retry_after(payload).has_value();
    case FrameType::kWarning:
      return decode_warning(payload).has_value();
    case FrameType::kFinishStream:
      return decode_finish_stream(payload).has_value();
    case FrameType::kFinished:
    case FrameType::kStatsReply:
      return decode_stream_stats(payload).has_value();
    case FrameType::kStats:
      return decode_stats(payload).has_value();
    case FrameType::kError:
      return decode_error(payload).has_value();
    case FrameType::kBye:
      return payload.empty();  // BYE has no payload and no decoder
  }
  return false;
}

TEST(WireRejectionTest, MutatedIngestPayloadsNeverThrow) {
  // 1-8 random bytes overwritten, in the payload of a valid message of
  // every frame type and in the whole frame: no message decoder and no
  // frame decode may throw.
  Rng rng(testing::fuzz_seed(12002));
  std::vector<bgl::RasRecord> records;
  std::vector<bgl::Event> events;
  TimeSec t = 1000;
  for (int i = 0; i < 6; ++i) {
    bgl::RasRecord record = golden_records()[static_cast<std::size_t>(i % 2)];
    record.event_time = t += static_cast<TimeSec>(rng.uniform_index(50));
    record.entry_data.assign(rng.uniform_index(40), 'x');
    records.push_back(record);
    events.push_back(random_event(rng, t));
  }
  StreamStatsMsg stats;
  stats.stream_id = 1;
  stats.events_ingested = 5000;
  stats.warnings_emitted = 17;
  stats.finished = 1;
  std::vector<std::vector<unsigned char>> frames(15);
  append_hello(frames[0], HelloMsg{});
  append_hello_ack(frames[1], HelloMsg{});
  append_open_stream(frames[2],
                     OpenStreamMsg{kOpenIngest | kOpenSubscribe, "anl"});
  append_stream_opened(frames[3], StreamOpenedMsg{1, 9});
  append_ingest_events(frames[4], 1, 9, events);
  append_ingest_records(frames[5], 1, 9, records);
  append_ingest_ack(frames[6], IngestAckMsg{1, 10, 63});
  append_retry_after(frames[7], RetryAfterMsg{1, 9, 5});
  append_warning(frames[8], WarningMsg{1, golden_warning()});
  append_finish_stream(frames[9], FinishStreamMsg{1, 10});
  append_finished(frames[10], stats);
  append_stats(frames[11], StatsMsg{1});
  append_stats_reply(frames[12], stats);
  append_error(frames[13], ErrorMsg{ErrorCode::kOutOfOrder, 1, "regressed"});
  append_bye(frames[14]);
  for (const auto& frame : frames) {
    const DecodedFrame decoded = decode_frame(frame.data(), frame.size());
    ASSERT_EQ(decoded.status, DecodeStatus::kFrame);
    ASSERT_TRUE(decode_as(decoded.type, decoded.payload))
        << to_string(decoded.type);
  }

  const auto mutate = [&](std::vector<unsigned char>& bytes) {
    const std::size_t flips = 1 + rng.uniform_index(8);
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng.uniform_index(bytes.size())] =
          static_cast<unsigned char>(rng.next_u64());
    }
  };
  constexpr int kRounds = 2000;
  std::size_t records_accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& frame : frames) {
      const DecodedFrame valid = decode_frame(frame.data(), frame.size());
      std::vector<unsigned char> payload(valid.payload.begin(),
                                         valid.payload.end());
      if (!payload.empty()) {
        mutate(payload);
        bool accepted = false;
        ASSERT_NO_THROW(accepted = decode_as(valid.type, payload))
            << to_string(valid.type) << " round " << round;
        if (valid.type == FrameType::kIngestRecords && accepted) {
          ++records_accepted;
        }
      }
      auto bytes = frame;
      mutate(bytes);
      ASSERT_NO_THROW({
        const DecodedFrame decoded = decode_frame(bytes.data(), bytes.size());
        if (decoded.status == DecodeStatus::kFrame) {
          decode_as(decoded.type, decoded.payload);
        }
      }) << to_string(valid.type) << " frame, round " << round;
    }
  }
  // Mutations that only touch the header's stream id and sequence bytes
  // (or rewrite a byte to itself) still decode: both verdicts occur.
  EXPECT_GT(records_accepted, 0u);
  EXPECT_LT(records_accepted, static_cast<std::size_t>(kRounds));
}

TEST(WireRejectionTest, ByteReaderLatchesOnOverrun) {
  const unsigned char bytes[] = {0x01, 0x02, 0x03};
  ByteReader reader(bytes, sizeof bytes);
  EXPECT_EQ(reader.u16(), 0x0201u);
  EXPECT_TRUE(reader.ok());
  EXPECT_FALSE(reader.done());
  EXPECT_EQ(reader.u32(), 0u);  // overrun clamps to zero...
  EXPECT_FALSE(reader.ok());    // ...and latches
  EXPECT_FALSE(reader.done());
  ByteReader exact(bytes, sizeof bytes);
  exact.u16();
  exact.u8();
  EXPECT_TRUE(exact.done());
}

}  // namespace
}  // namespace dml::net
