// Chaos tier, network edition: the daemon under net.accept / net.read /
// net.write failpoints.  The degradation contract mirrors chaos.engine:
//
//   - no deadlock: ingest retried over killed connections always runs
//     to FINISHED (the suite timeout converts a hang into a failure),
//   - exactly-once admission survives any connection kill: go-back-N
//     resume means the engine sees every event exactly once, so the
//     final warning count equals the fault-free batch replay's,
//   - every refused or torn-down connection is counted: accepts
//     reconcile with adoptions plus failpoint triggers, and every
//     adopted connection is eventually closed.
//
// Runs under `ctest -C chaos -L chaos` (excluded from tier-1).  The
// kill sweep iterates 50 derived seeds per run; DMLFP_TEST_SEED=<n>
// rebases the sweep to replay a failing window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/failpoint.hpp"
#include "loggen/generator.hpp"
#include "net/client.hpp"
#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "support/socket_fixture.hpp"
#include "support/test_fixtures.hpp"

namespace dml::net {
namespace {

class ChaosNetTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FailpointRegistry::instance().reset(); }
  void TearDown() override { common::FailpointRegistry::instance().reset(); }
};

/// Every INGEST frame carries exactly this many events, so a resumed
/// connection maps STREAM_OPENED.next_seq to an event offset exactly.
constexpr std::size_t kBatch = 256;

/// 8-week ANL corpus truncated to a whole number of batches.
const std::vector<bgl::Event>& corpus() {
  static const std::vector<bgl::Event> events = [] {
    loggen::MachineProfile profile = loggen::MachineProfile::anl();
    profile.weeks = 8;
    auto all = loggen::LogGenerator(profile, 1005).generate_unique_events();
    all.resize(all.size() - all.size() % kBatch);
    return all;
  }();
  return events;
}

/// Fault-free oracle: warnings the fixture's engine config emits on
/// corpus() when every event arrives exactly once.
std::size_t reference_warning_count() {
  static const std::size_t count = [] {
    online::DriverConfig driver;
    driver.training_weeks = 4;
    driver.retrain_weeks = 2;
    std::size_t warnings = 0;
    online::ShardedEngine engine(
        online::sharded_config_from_driver(driver, 2),
        [&](const predict::Warning&) { ++warnings; });
    for (const auto& event : corpus()) engine.consume(event);
    engine.finish();
    return warnings;
  }();
  return count;
}

/// Drives the whole corpus into stream `name`, reconnecting with resume
/// every time the chaos plane kills the connection, until FINISHED.
StreamStatsMsg ingest_with_retries(std::uint16_t port,
                                   const std::string& name) {
  const auto& events = corpus();
  ClientConfig client_config;
  client_config.batch_events = kBatch;
  std::uint32_t stream_id = 0;
  for (int attempt = 0; attempt < 300; ++attempt) {
    try {
      Client client("127.0.0.1", port, client_config);
      const auto opened = client.open_stream(name);
      stream_id = opened.stream_id;
      const std::size_t offset = opened.next_seq * kBatch;
      if (offset > events.size()) {
        ADD_FAILURE() << "daemon resumed past the corpus: seq "
                      << opened.next_seq;
        return {};
      }
      client.send_events(opened.stream_id,
                         std::span(events.data() + offset,
                                   events.size() - offset));
      return client.finish_stream(opened.stream_id);
    } catch (const ClientError& e) {
      // Connection killed by a failpoint (possibly during the
      // handshake); reconnect and resume from the daemon's next_seq.
      // One special window: the kill landed between the engine
      // finishing and FINISHED reaching us, so reopening reports the
      // stream as already finished — fetch the final stats over a
      // control-only connection instead.
      if (e.code() == ErrorCode::kUnknownStream && stream_id != 0) {
        try {
          Client probe("127.0.0.1", port, client_config);
          const StreamStatsMsg stats = probe.stats(stream_id);
          if (stats.finished) return stats;
        } catch (const ClientError&) {
          // Probe connection killed too; take another lap.
        }
      }
    }
  }
  ADD_FAILURE() << "ingest never finished within 300 connection attempts";
  return {};
}

TEST_F(ChaosNetTest, KillSweepIngestIsExactlyOnceAcrossFiftySeeds) {
  const auto base = testing::fuzz_seed(6001);
  auto& registry = common::FailpointRegistry::instance();
  std::uint64_t kills_observed = 0;

  for (std::uint64_t iter = 0; iter < 50; ++iter) {
    const std::uint64_t seed = base + iter;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    registry.reset();
    registry.reseed(seed);
    ASSERT_TRUE(registry.arm_from_string("net.accept=throw:p=0.02"));
    ASSERT_TRUE(registry.arm_from_string("net.read=throw:p=0.03"));
    ASSERT_TRUE(registry.arm_from_string("net.write=throw:p=0.03"));

    testing::DaemonFixture fixture(testing::daemon_test_config(4, 2));
    const StreamStatsMsg stats = ingest_with_retries(fixture.port(), "c");

    // Exactly-once admission under arbitrary connection kills.
    EXPECT_EQ(stats.events_ingested, corpus().size());
    EXPECT_EQ(stats.warnings_emitted, reference_warning_count());
    EXPECT_TRUE(stats.finished);

    kills_observed += registry.stats("net.accept").triggers +
                      registry.stats("net.read").triggers +
                      registry.stats("net.write").triggers;

    // Connection accounting reconciles at drain: every successful
    // accept was either refused (counted) or adopted, and every
    // adopted connection was closed.
    const DaemonStats final = fixture.stop();
    EXPECT_EQ(final.accepts,
              final.connections_adopted + final.accepts_failed);
    EXPECT_EQ(final.connections_closed, final.connections_adopted);
    EXPECT_GE(final.connections_closed, final.connections_failed);
  }
  // The sweep must actually have exercised the fault plane.
  EXPECT_GT(kills_observed, 0u);
}

TEST_F(ChaosNetTest, AcceptFaultsAreCountedRefusalsNeverCrashes) {
  const auto seed = testing::fuzz_seed(6101);
  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  ASSERT_TRUE(registry.arm_from_string("net.accept=throw:p=0.5"));

  testing::DaemonFixture fixture(testing::daemon_test_config());
  std::size_t handshakes = 0;
  for (int i = 0; i < 40; ++i) {
    try {
      Client client("127.0.0.1", fixture.port());
      ++handshakes;
    } catch (const ClientError&) {
      // Refused at accept: the peer sees a reset mid-handshake.
    }
  }

  const std::uint64_t refusals = registry.stats("net.accept").triggers;
  registry.reset();  // let the drain path run fault-free
  const DaemonStats final = fixture.stop();
  EXPECT_GT(refusals, 0u);
  EXPECT_EQ(final.accepts_failed, refusals);
  EXPECT_EQ(final.accepts, final.connections_adopted + final.accepts_failed);
  EXPECT_EQ(final.connections_adopted, handshakes);
  EXPECT_EQ(final.connections_closed, final.connections_adopted);
}

TEST_F(ChaosNetTest, ReadDropsDelayFramesButNeverDesynchronise) {
  const auto seed = testing::fuzz_seed(6201);
  auto& registry = common::FailpointRegistry::instance();
  registry.reseed(seed);
  // Level-triggered epoll re-reports unread data, so a dropped read
  // wakeup is pure delay: no retries, no kills, identical output.
  ASSERT_TRUE(registry.arm_from_string("net.read=drop:p=0.2"));

  testing::DaemonFixture fixture(testing::daemon_test_config(4, 2));
  // Small frames, default window: the stream spans a few hundred read
  // wakeups, so p=0.2 drops some on every seed.  (256-event frames let
  // the daemon read the whole corpus in a handful of wakeups, and on
  // some seeds none of them dropped.)  This test never resumes, so it
  // needs no kBatch alignment.
  ClientConfig client_config;
  client_config.batch_events = 8;
  Client client("127.0.0.1", fixture.port(), client_config);
  const auto opened = client.open_stream("d");
  client.send_events(opened.stream_id, corpus());
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);

  EXPECT_GT(registry.stats("net.read").triggers, 0u);
  EXPECT_EQ(stats.events_ingested, corpus().size());
  EXPECT_EQ(stats.warnings_emitted, reference_warning_count());
  EXPECT_TRUE(stats.finished);
}

}  // namespace
}  // namespace dml::net
