#include "storage/segment.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "bgl/location.hpp"
#include "support/temp_dir.hpp"

namespace dml::storage {
namespace {

bgl::Event event_at(TimeSec t, bool fatal = false) {
  bgl::Event event;
  event.time = t;
  event.category = static_cast<CategoryId>(t % 97);
  event.job_id = 1;
  event.location = bgl::Location::compute_chip(static_cast<int>(t % 4), 0,
                                               1, 2, 0);
  event.fatal = fatal;
  return event;
}

/// Builds a segment image in memory: header + `times.size()` records.
std::vector<unsigned char> segment_image(const std::vector<TimeSec>& times,
                                         std::uint64_t first_ordinal = 0) {
  std::vector<unsigned char> image(kSegmentHeaderSize);
  SegmentHeader header;
  header.first_ordinal = first_ordinal;
  encode_segment_header(header, image.data());
  for (const TimeSec t : times) {
    unsigned char buf[kEventRecordSize];
    encode_event(event_at(t, t % 3 == 0), buf);
    image.insert(image.end(), buf, buf + sizeof buf);
  }
  return image;
}

TEST(ScanSegment, CleanImage) {
  const auto image = segment_image({10, 20, 20, 35}, 7);
  const auto scan = scan_segment(image.data(), image.size());
  ASSERT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.header.first_ordinal, 7u);
  EXPECT_EQ(scan.valid_records, 4u);
  EXPECT_EQ(scan.valid_bytes, image.size());
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.index.count, 4u);
  EXPECT_EQ(scan.index.first_ordinal, 7u);
  EXPECT_EQ(scan.index.min_time, 10);
  EXPECT_EQ(scan.index.max_time, 35);
}

TEST(ScanSegment, TornTailIsCounted) {
  auto image = segment_image({10, 20, 30});
  // Tear the last record: drop its final 5 bytes.
  image.erase(image.end() - 5, image.end());
  const auto scan = scan_segment(image.data(), image.size());
  ASSERT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.valid_records, 2u);
  EXPECT_EQ(scan.torn_bytes, kEventRecordSize - 5);
  EXPECT_EQ(scan.valid_bytes + scan.torn_bytes, image.size());
}

TEST(ScanSegment, CorruptMidRecordStopsTheScan) {
  auto image = segment_image({10, 20, 30, 40});
  image[kSegmentHeaderSize + kEventRecordSize + 3] ^= 0xff;  // record 1
  const auto scan = scan_segment(image.data(), image.size());
  ASSERT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.valid_records, 1u);
  EXPECT_EQ(scan.torn_bytes, 3 * kEventRecordSize);
}

TEST(ScanSegment, TimeRegressionIsTorn) {
  // Records with a decreasing timestamp violate the segment invariant;
  // the scan must stop even though the CRC is intact.
  const auto image = segment_image({50, 40});
  const auto scan = scan_segment(image.data(), image.size());
  ASSERT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.valid_records, 1u);
  EXPECT_EQ(scan.torn_bytes, kEventRecordSize);
}

TEST(ScanSegment, BadHeaderMeansWholeFileTorn) {
  auto image = segment_image({10});
  image[0] ^= 0x01;
  const auto scan = scan_segment(image.data(), image.size());
  EXPECT_FALSE(scan.header_ok);
  EXPECT_EQ(scan.valid_records, 0u);
  EXPECT_EQ(scan.torn_bytes, image.size());

  const auto short_scan = scan_segment(image.data(), 10);
  EXPECT_FALSE(short_scan.header_ok);
  EXPECT_EQ(short_scan.torn_bytes, 10u);
}

TEST(LowerBoundTime, FindsFirstRecordAtOrAfter) {
  const std::vector<TimeSec> times = {10, 20, 20, 20, 35, 40};
  const auto image = segment_image(times);
  const unsigned char* records = image.data() + kSegmentHeaderSize;
  const auto n = static_cast<std::uint64_t>(times.size());
  EXPECT_EQ(lower_bound_time(records, n, 0), 0u);
  EXPECT_EQ(lower_bound_time(records, n, 10), 0u);
  EXPECT_EQ(lower_bound_time(records, n, 11), 1u);
  EXPECT_EQ(lower_bound_time(records, n, 20), 1u);
  EXPECT_EQ(lower_bound_time(records, n, 21), 4u);
  EXPECT_EQ(lower_bound_time(records, n, 40), 5u);
  EXPECT_EQ(lower_bound_time(records, n, 41), 6u);
  EXPECT_EQ(lower_bound_time(records, 0, 10), 0u);
}

TEST(MappedFile, MapsAndHandlesEmptyFiles) {
  testing::ScopedTempDir dir("dml-segment");
  const auto path = dir.sub("file.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "hello";
  }
  auto map = MappedFile::open(path);
  ASSERT_TRUE(map.mapped());
  ASSERT_EQ(map.size(), 5u);
  EXPECT_EQ(std::memcmp(map.data(), "hello", 5), 0);

  const auto empty_path = dir.sub("empty.bin");
  { std::ofstream out(empty_path, std::ios::binary); }
  auto empty = MappedFile::open(empty_path);
  EXPECT_TRUE(empty.mapped());
  EXPECT_EQ(empty.size(), 0u);

  // Move transfers ownership.
  MappedFile moved = std::move(map);
  EXPECT_EQ(moved.size(), 5u);

  EXPECT_THROW(MappedFile::open(dir.sub("missing.bin")), std::runtime_error);
}

}  // namespace
}  // namespace dml::storage
