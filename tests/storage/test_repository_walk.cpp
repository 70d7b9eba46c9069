// Recovery is one walk (storage/segment.hpp): one repository per kind of
// damage, and what writer reopen, repository open and verify each do
// with it.  A fault makes open and reopen throw without touching a byte;
// anything else open serves (reading, never writing), reopen repairs,
// and both see the same records.  Verify only reports.
#include "storage/segment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "bgl/location.hpp"
#include "storage/disk_repository.hpp"
#include "storage/log_writer.hpp"
#include "storage/maintenance.hpp"
#include "support/temp_dir.hpp"

namespace dml::storage {
namespace {

namespace fs = std::filesystem;

/// Three sealed segments of 8 records, then 5 records in active.log.
constexpr std::size_t kPerSegment = 8;
constexpr std::size_t kRecords = 3 * kPerSegment + 5;
constexpr std::size_t kSealedRecords = 3 * kPerSegment;

bgl::Event event_at(std::size_t i) {
  bgl::Event event;
  event.time = static_cast<TimeSec>(100 + 10 * i);
  event.category = static_cast<CategoryId>(i % 7);
  event.job_id = static_cast<std::uint32_t>(i);
  event.location =
      bgl::Location::compute_chip(static_cast<int>(i % 4), 0, 1, 0, 0);
  event.fatal = i % 5 == 0;
  return event;
}

std::vector<bgl::Event> events_up_to(std::size_t n) {
  std::vector<bgl::Event> events;
  for (std::size_t i = 0; i < n; ++i) events.push_back(event_at(i));
  return events;
}

void build_repo(const std::string& dir) {
  LogWriterOptions options;
  options.segment_bytes = kSegmentHeaderSize + kPerSegment * kEventRecordSize;
  LogWriter writer(dir, "anl", options);
  for (const bgl::Event& event : events_up_to(kRecords)) writer.append(event);
  writer.close();
}

/// Every file's bytes, to prove a path left the directory untouched.
std::map<std::string, std::string> snapshot(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

void append_bytes(const std::string& path, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << std::string(n, 'x');
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  const char byte = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(byte ^ 0x10));
}

struct Damage {
  const char* name;
  void (*apply)(const std::string& dir);
  /// Open and reopen refuse the repository (and verify reports it).
  bool fault;
  bool verify_ok;
  /// Torn bytes open ignores and reopen truncates.
  std::uint64_t torn_bytes;
  /// Indexes open rebuilds in memory and reopen rewrites on disk.
  std::size_t indexes_rebuilt;
  std::size_t temp_files_removed;
  /// Records open serves and reopen appends after.
  std::size_t records;
};

const Damage kDamages[] = {
    {"clean", [](const std::string&) {}, false, true, 0, 0, 0, kRecords},
    {"zero_length_active",
     [](const std::string& dir) { fs::resize_file(dir + "/active.log", 0); },
     false, true, 0, 0, 0, kSealedRecords},
    {"ten_byte_active",
     [](const std::string& dir) { fs::resize_file(dir + "/active.log", 10); },
     false, true, 10, 0, 0, kSealedRecords},
    {"torn_active_record",
     [](const std::string& dir) { append_bytes(dir + "/active.log", 7); },
     false, true, 7, 0, 0, kRecords},
    {"flipped_active_header_byte",
     [](const std::string& dir) { flip_byte(dir + "/active.log", 5); }, true,
     false, 0, 0, 0, 0},
    {"torn_sealed_tail",
     [](const std::string& dir) {
       append_bytes(dir + "/seg-000001.log", 13);
     },
     false, false, 13, 0, 0, kRecords},
    {"missing_index",
     [](const std::string& dir) { fs::remove(dir + "/seg-000001.idx"); },
     false, false, 0, 1, 0, kRecords},
    {"corrupt_index",
     [](const std::string& dir) { flip_byte(dir + "/seg-000001.idx", 9); },
     false, false, 0, 1, 0, kRecords},
    {"stale_index",
     [](const std::string& dir) {
       fs::copy_file(dir + "/seg-000000.idx", dir + "/seg-000001.idx",
                     fs::copy_options::overwrite_existing);
     },
     false, false, 0, 1, 0, kRecords},
    {"stray_tmp",
     [](const std::string& dir) {
       append_bytes(dir + "/seg-000002.idx.tmp", 3);
     },
     false, false, 0, 0, 1, kRecords},
    {"missing_manifest",
     [](const std::string& dir) { fs::remove(dir + "/repo.meta"); }, true,
     false, 0, 0, 0, 0},
    {"gap_in_numbering",
     [](const std::string& dir) {
       fs::remove(dir + "/seg-000001.log");
       fs::remove(dir + "/seg-000001.idx");
     },
     true, false, 0, 0, 0, 0},
    {"first_ordinal_mismatch",
     [](const std::string& dir) {
       SegmentHeader header;
       header.first_ordinal = kSealedRecords + 1;
       unsigned char bytes[kSegmentHeaderSize];
       encode_segment_header(header, bytes);
       std::fstream f(dir + "/active.log",
                      std::ios::binary | std::ios::in | std::ios::out);
       f.write(reinterpret_cast<const char*>(bytes), sizeof bytes);
     },
     true, false, 0, 0, 0, 0},
};

void PrintTo(const Damage& damage, std::ostream* out) { *out << damage.name; }

class RepositoryDamage : public ::testing::TestWithParam<Damage> {};

TEST_P(RepositoryDamage, OpenReopenAndVerifyAgree) {
  const Damage& damage = GetParam();
  testing::ScopedTempDir tmp("dml-damage");
  const std::string dir = tmp.sub("repo");
  build_repo(dir);
  damage.apply(dir);
  const auto before = snapshot(dir);

  const VerifyReport report = verify_repository(dir);
  EXPECT_EQ(report.ok(), damage.verify_ok)
      << (report.issues.empty() ? "no issue" : report.issues.front());
  // Only a benign active tail counts as torn there; a refused file does
  // not (its bytes are not recoverable).
  EXPECT_EQ(report.active_torn_bytes,
            damage.verify_ok ? damage.torn_bytes : 0u);
  if (damage.verify_ok) {
    EXPECT_EQ(report.records, damage.records);
  }
  EXPECT_EQ(snapshot(dir), before) << "verify wrote";

  if (damage.fault) {
    EXPECT_THROW(OnDiskRepository{dir}, std::runtime_error);
    EXPECT_THROW(LogWriter{dir}, std::runtime_error);
    EXPECT_EQ(snapshot(dir), before) << "a refused repository was touched";
    return;
  }

  const auto expected = events_up_to(damage.records);
  {
    OnDiskRepository repo(dir);
    EXPECT_EQ(repo.size(), damage.records);
    EXPECT_EQ(repo.open_info().torn_bytes_ignored, damage.torn_bytes);
    EXPECT_EQ(repo.open_info().indexes_rebuilt, damage.indexes_rebuilt);
    // Open reads the active tail and only the sealed bodies whose index
    // it could not trust.
    EXPECT_EQ(repo.io_stats().segments_opened, damage.indexes_rebuilt + 1);
    EXPECT_EQ(materialize(repo, 0, event_at(kRecords).time), expected);
  }
  EXPECT_EQ(snapshot(dir), before) << "open wrote";

  const bgl::Event late = event_at(kRecords + 1);
  {
    LogWriter writer(dir);
    EXPECT_EQ(writer.total_records(), damage.records);
    EXPECT_EQ(writer.recovery().truncated_bytes, damage.torn_bytes);
    EXPECT_EQ(writer.recovery().indexes_rebuilt, damage.indexes_rebuilt);
    EXPECT_EQ(writer.recovery().temp_files_removed,
              damage.temp_files_removed);
    writer.append(late);
    writer.close();
  }
  // Repaired: verify-clean, and the records both paths saw plus the
  // appended one.
  const VerifyReport repaired = verify_repository(dir);
  EXPECT_TRUE(repaired.ok())
      << (repaired.issues.empty() ? "" : repaired.issues.front());
  EXPECT_EQ(repaired.active_torn_bytes, 0u);
  auto with_late = expected;
  with_late.push_back(late);
  OnDiskRepository repo(dir);
  EXPECT_EQ(materialize(repo, 0, late.time + 1), with_late);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RepositoryDamage,
                         ::testing::ValuesIn(kDamages),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dml::storage
