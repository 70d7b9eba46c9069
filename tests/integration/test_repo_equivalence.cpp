// The tentpole guarantee of the pluggable data plane: the same pipeline
// run off an in-memory EventStore and off the mmap-backed on-disk log
// produces byte-identical warning streams and interval results.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "online/driver.hpp"
#include "storage/disk_repository.hpp"
#include "storage/log_writer.hpp"
#include "support/temp_dir.hpp"
#include "support/test_fixtures.hpp"

namespace dml {
namespace {

std::string warning_key(const predict::Warning& w) {
  std::ostringstream out;
  out << w.issued_at << ' ' << w.deadline << ' '
      << (w.category ? static_cast<int>(*w.category) : -1) << ' '
      << (w.location ? static_cast<long long>(w.location->packed()) : -1)
      << ' ' << w.rule_id << ' ' << learners::to_string(w.source);
  return out.str();
}

class RepoEquivalence : public ::testing::Test {
 protected:
  /// Writes shared_store() into a many-segment on-disk repository once
  /// for the whole suite.
  static void SetUpTestSuite() {
    dir_ = new testing::ScopedTempDir("dml-equiv");
    const auto& store = testing::shared_store();
    storage::LogWriterOptions options;
    options.segment_bytes = 16 * 1024;  // force plenty of segments
    storage::LogWriter writer(dir_->sub("repo"), "sdsc", options);
    storage::CanonicalAppender appender(writer);
    for (const auto& event : store.all()) appender.append(event);
    appender.flush();
    writer.close();
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static testing::ScopedTempDir* dir_;
};

testing::ScopedTempDir* RepoEquivalence::dir_ = nullptr;

TEST_F(RepoEquivalence, RepositoryHoldsTheExactEventSequence) {
  const auto& store = testing::shared_store();
  storage::OnDiskRepository repo(dir_->sub("repo"));
  ASSERT_EQ(repo.size(), store.size());
  EXPECT_GT(repo.segment_count(), 4u);
  const auto from_disk =
      storage::materialize(repo, repo.first_time(), repo.last_time() + 1);
  const auto in_memory = store.all();
  ASSERT_EQ(from_disk.size(), in_memory.size());
  for (std::size_t i = 0; i < from_disk.size(); ++i) {
    ASSERT_EQ(from_disk[i], in_memory[i]) << "event " << i;
  }
}

TEST_F(RepoEquivalence, DriverRunsIdenticallyOffMemoryAndDisk) {
  online::DriverConfig config;
  config.training_weeks = 12;
  config.retrain_weeks = 4;

  std::vector<std::string> memory_warnings;
  config.warning_observer = [&](const predict::Warning& w) {
    memory_warnings.push_back(warning_key(w));
  };
  const auto from_memory =
      online::DynamicDriver(config).run(testing::shared_store());

  storage::OnDiskRepository repo(dir_->sub("repo"));
  std::vector<std::string> disk_warnings;
  config.warning_observer = [&](const predict::Warning& w) {
    disk_warnings.push_back(warning_key(w));
  };
  const auto from_disk = online::DynamicDriver(config).run(repo);

  // Byte-identical warning stream...
  ASSERT_GT(memory_warnings.size(), 10u);
  EXPECT_EQ(disk_warnings, memory_warnings);

  // ...and identical interval results.
  ASSERT_EQ(from_disk.intervals.size(), from_memory.intervals.size());
  for (std::size_t i = 0; i < from_disk.intervals.size(); ++i) {
    const auto& d = from_disk.intervals[i];
    const auto& m = from_memory.intervals[i];
    EXPECT_EQ(d.week, m.week);
    EXPECT_EQ(d.test_begin, m.test_begin);
    EXPECT_EQ(d.test_end, m.test_end);
    EXPECT_EQ(d.counts, m.counts);
    EXPECT_EQ(d.fatal_count, m.fatal_count);
    EXPECT_EQ(d.warning_count, m.warning_count);
    EXPECT_EQ(d.rules_active, m.rules_active);
  }
  EXPECT_EQ(from_disk.total_counts(), from_memory.total_counts());

  // The disk run accounts its log I/O; the in-memory run has none.
  EXPECT_GT(from_disk.engine_stats.log_io.bytes_read, 0u);
  EXPECT_GT(from_disk.engine_stats.log_io.segments_opened, 0u);
  EXPECT_EQ(from_memory.engine_stats.log_io.bytes_read, 0u);
}

TEST_F(RepoEquivalence, ResumedDiskRunMatchesFullDiskRunTail) {
  storage::OnDiskRepository repo(dir_->sub("repo"));
  online::DriverConfig config;
  config.training_weeks = 12;
  config.retrain_weeks = 4;

  std::vector<std::string> full;
  config.warning_observer = [&](const predict::Warning& w) {
    full.push_back(warning_key(w));
  };
  const auto full_result = online::DynamicDriver(config).run(repo);

  config.resume_week = 24;
  std::vector<std::string> resumed;
  config.warning_observer = [&](const predict::Warning& w) {
    resumed.push_back(warning_key(w));
  };
  const auto resumed_result = online::DynamicDriver(config).run(repo);

  ASSERT_FALSE(resumed_result.intervals.empty());
  const TimeSec resume_time = resumed_result.intervals.front().test_begin;
  std::vector<std::string> expected;
  for (const auto& key : full) {
    if (std::stoll(key) >= resume_time) expected.push_back(key);
  }
  EXPECT_EQ(resumed, expected);
  for (const auto& interval : resumed_result.intervals) {
    const auto* match = [&]() -> const online::IntervalResult* {
      for (const auto& f : full_result.intervals) {
        if (f.index == interval.index) return &f;
      }
      return nullptr;
    }();
    ASSERT_NE(match, nullptr) << "interval " << interval.index;
    EXPECT_EQ(interval.week, match->week);
    EXPECT_EQ(interval.counts, match->counts);
  }
}

}  // namespace
}  // namespace dml
