// Recovery is one walk (storage/segment.hpp): one repository per kind of
// damage, and what writer reopen, repository open and verify each do
// with it.  A fault makes open and reopen throw without touching a byte;
// anything else open serves (reading, never writing), reopen repairs,
// and both see the same records.  Verify only reports.  Then the same
// rule on hostile bytes: seeded mutations of 1-8 bytes in any file of
// a repository never crash any of the three, and refuse it exactly on a
// fault.
#include "storage/segment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <ostream>
#include <string>
#include <vector>

#include "bgl/location.hpp"
#include "common/rng.hpp"
#include "storage/disk_repository.hpp"
#include "storage/log_writer.hpp"
#include "storage/maintenance.hpp"
#include "support/temp_dir.hpp"
#include "support/test_fixtures.hpp"

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

// ---- Hostile bytes --------------------------------------------------------

/// Runs `step`; true if it threw the std::runtime_error storage throws.
/// Any other exception escapes and fails the test.
template <typename Step>
bool refused(Step step) {
  try {
    step();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

TEST(RepositoryMutation, MutatedBytesNeverCrashAndOnlyAFaultRefuses) {
  // 1-8 bytes of the manifest, a sealed segment, its sidecar index or
  // the active tail, xor-ed with random non-zero values.  The indexes
  // carry midplane address records (four midplanes), so each index
  // block is long enough for the folding CRC kernel.
  const std::uint64_t seed = testing::fuzz_seed(2901);
  Rng rng(seed);
  testing::ScopedTempDir tmp("dml-mutate");
  const std::string pristine = tmp.sub("pristine");
  build_repo(pristine);
  const std::vector<std::string> targets = {
      "repo.meta",      "seg-000000.log", "seg-000000.idx",
      "seg-000001.log", "seg-000002.idx", "active.log"};
  constexpr int kRounds = 240;
  int faults = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string dir = tmp.sub("round");
    fs::remove_all(dir);
    fs::copy(pristine, dir);
    const std::string& target = targets[rng.next_u64() % targets.size()];
    const std::string path = dir + "/" + target;
    const auto size = static_cast<std::size_t>(fs::file_size(path));
    const std::size_t flips = 1 + rng.next_u64() % 8;
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      for (std::size_t i = 0; i < flips; ++i) {
        const auto offset = static_cast<std::streamoff>(rng.next_u64() % size);
        f.seekg(offset);
        const char byte = static_cast<char>(f.get());
        f.seekp(offset);
        f.put(static_cast<char>(byte ^ (1 + rng.next_u64() % 255)));
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round) + ": " + std::to_string(flips) +
                 " byte(s) of " + target);

    const bool read_fault =
        !walk_repository(dir, WalkDepth::kTrustIndexes).faults.empty();
    const bool scan_fault =
        !walk_repository(dir, WalkDepth::kScanAll).faults.empty();
    faults += scan_fault ? 1 : 0;
    EXPECT_FALSE(refused([&] { (void)verify_repository(dir); }));

    // Open trusts a sealed segment's index, so the scan may still meet
    // a damaged body; the cursor then throws its CRC failure.
    const bool open_refused = refused([&] {
      OnDiskRepository repo(dir);
      (void)refused([&] {
        const auto cursor = repo.scan(std::numeric_limits<TimeSec>::min(),
                                      std::numeric_limits<TimeSec>::max());
        std::vector<bgl::Event> events;
        while (cursor->next(events, 256) > 0) events.clear();
      });
    });
    EXPECT_EQ(open_refused, read_fault);

    const bool reopen_refused = refused([&] {
      LogWriter writer(dir);
      writer.close();
    });
    EXPECT_EQ(reopen_refused, scan_fault);
    if (HasFailure()) return;
  }
  // The mix really does reach both sides of the rule.
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, kRounds);
}

}  // namespace
}  // namespace dml::storage
