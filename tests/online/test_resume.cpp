// Restartable replay: a run resumed at time T must serve exactly what an
// uninterrupted replay serves from T on, as a sequence.  Both the driver
// and the sharded path (`dmlfp run --threads N --resume-week W`) resume
// the same way: replay from the first event, keep the warnings issued
// from T on.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <sstream>
#include <vector>

#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

/// One warning as a comparable, printable line (the Warning struct has
/// no operator==; a string key also gives readable failure output).
std::string warning_key(const predict::Warning& w) {
  std::ostringstream out;
  out << w.issued_at << ' ' << w.deadline << ' ';
  if (w.category.has_value()) {
    out << *w.category;
  } else {
    out << '-';
  }
  out << ' ';
  if (w.location.has_value()) {
    out << w.location->packed();
  } else {
    out << '-';
  }
  out << ' ' << w.rule_id << ' ' << learners::to_string(w.source);
  return out.str();
}

std::vector<std::string> keys_of(
    const std::vector<predict::Warning>& warnings) {
  std::vector<std::string> keys;
  keys.reserve(warnings.size());
  for (const auto& w : warnings) keys.push_back(warning_key(w));
  return keys;
}

class DriverResume : public ::testing::TestWithParam<TrainingMode> {
 protected:
  static DriverConfig base_config(TrainingMode mode) {
    DriverConfig config;
    config.mode = mode;
    config.training_weeks = 12;
    config.retrain_weeks = 4;
    return config;
  }
};

TEST_P(DriverResume, ResumedIntervalsMatchTheFullRunTail) {
  const auto& store = testing::shared_store();

  auto full_config = base_config(GetParam());
  std::vector<predict::Warning> full_warnings;
  full_config.warning_observer = [&](const predict::Warning& w) {
    full_warnings.push_back(w);
  };
  const auto full = DynamicDriver(full_config).run(store);
  ASSERT_GE(full.intervals.size(), 4u);

  // Resume at week 20: boundaries sit at 12, 16, 20, ... so the run
  // reports intervals from week 20 exactly.
  auto resume_config = base_config(GetParam());
  resume_config.resume_week = 20;
  std::vector<predict::Warning> resumed_warnings;
  resume_config.warning_observer = [&](const predict::Warning& w) {
    resumed_warnings.push_back(w);
  };
  const auto resumed = DynamicDriver(resume_config).run(store);

  // Interval-by-interval equality with the full run's tail, numbering
  // included.
  std::vector<const IntervalResult*> full_tail;
  for (const auto& interval : full.intervals) {
    if (interval.week >= 20) full_tail.push_back(&interval);
  }
  ASSERT_EQ(resumed.intervals.size(), full_tail.size());
  ASSERT_FALSE(resumed.intervals.empty());
  for (std::size_t i = 0; i < resumed.intervals.size(); ++i) {
    const auto& r = resumed.intervals[i];
    const auto& f = *full_tail[i];
    EXPECT_EQ(r.index, f.index);
    EXPECT_EQ(r.week, f.week);
    EXPECT_EQ(r.test_begin, f.test_begin);
    EXPECT_EQ(r.test_end, f.test_end);
    EXPECT_EQ(r.counts, f.counts);
    EXPECT_EQ(r.fatal_count, f.fatal_count);
    EXPECT_EQ(r.warning_count, f.warning_count);
    EXPECT_EQ(r.rules_active, f.rules_active);
  }

  // The emitted warning stream from the resume point on is
  // byte-identical to the full run's.
  const TimeSec resume_time = resumed.intervals.front().test_begin;
  std::vector<std::string> expected;
  for (const auto& w : full_warnings) {
    if (w.issued_at >= resume_time) expected.push_back(warning_key(w));
  }
  EXPECT_EQ(keys_of(resumed_warnings), expected);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DriverResume,
                         ::testing::Values(TrainingMode::kSlidingWindow,
                                           TrainingMode::kWholeHistory,
                                           TrainingMode::kStatic),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ShardedResume, ResumedWarningsAreTheFullRunTail) {
  const auto& store = testing::shared_store();
  DriverConfig driver;
  driver.training_weeks = 12;
  driver.retrain_weeks = 4;
  driver.resume_week = 19;
  const TimeSec serve_from = resume_boundary(driver, store.first_time());
  ASSERT_EQ(serve_from, store.first_time() + 20 * kSecondsPerWeek);
  const ShardedEngineConfig config = sharded_config_from_driver(driver, 3);

  // `run --threads N`'s rule: feed from the first event, keep what is
  // issued from the resume boundary on (everything for the full run).
  const auto run = [&](TimeSec keep_from) {
    std::mutex mutex;
    std::vector<predict::Warning> warnings;
    ShardedEngine engine(config, [&](const predict::Warning& w) {
      std::lock_guard lock(mutex);
      if (w.issued_at >= keep_from) warnings.push_back(w);
    });
    // 28 weeks is enough signal; keeps the two runs cheap.
    const auto events = store.between(
        store.first_time(), store.first_time() + 28 * kSecondsPerWeek);
    engine.consume_batch(events);
    engine.finish();
    return keys_of(warnings);
  };

  const auto full = run(store.first_time());
  const auto resumed = run(serve_from);
  std::vector<std::string> full_tail;
  for (const auto& key : full) {
    if (std::stoll(key) >= serve_from) full_tail.push_back(key);
  }
  ASSERT_GT(full_tail.size(), 10u);
  ASSERT_LT(full_tail.size(), full.size());
  // The warnings from the boundary on are the full run's tail (the merger
  // emits in issued_at order), and the resumed run emits exactly them,
  // merge order included.
  EXPECT_TRUE(std::equal(full_tail.rbegin(), full_tail.rend(), full.rbegin()));
  EXPECT_EQ(resumed, full_tail);
}

}  // namespace
}  // namespace dml::online
