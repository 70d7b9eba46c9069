// End-to-end equivalence: the warning stream served by dmlfpd over a
// loopback socket must be multiset-identical to the batch concurrent
// path (`dmlfp run --threads N`) on the same corpus and flags — both
// front ends map the same DriverConfig through
// online::sharded_config_from_driver, and this is the test that keeps
// that contract honest, on both the ANL- and SDSC-profile 8-week
// corpora, volatile, under --repo durable ingest, and four streams
// served at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "loggen/generator.hpp"
#include "net/client.hpp"
#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "storage/disk_repository.hpp"
#include "support/socket_fixture.hpp"
#include "support/temp_dir.hpp"
#include "support/test_fixtures.hpp"
#include "support/warning_key.hpp"

namespace dml::net {
namespace {

using testing::key_of;
using testing::WarningKey;

online::DriverConfig equivalence_driver() {
  online::DriverConfig driver;
  driver.training_weeks = 4;
  driver.retrain_weeks = 2;
  return driver;
}

std::vector<bgl::Event> corpus(loggen::MachineProfile profile,
                               std::uint64_t seed) {
  profile.weeks = 8;
  return loggen::LogGenerator(profile, seed).generate_unique_events();
}

/// The batch plane: the exact engine configuration `dmlfp run
/// --threads 2` builds, replayed in-process.
std::vector<WarningKey> batch_warnings(const std::vector<bgl::Event>& events) {
  const auto config =
      online::sharded_config_from_driver(equivalence_driver(), 2);
  std::vector<WarningKey> out;
  online::ShardedEngine engine(
      config, [&](const predict::Warning& w) { out.push_back(key_of(w)); });
  for (const auto& event : events) engine.consume(event);
  engine.finish();
  std::sort(out.begin(), out.end());
  return out;
}

/// The network plane: same events through the daemon on `port` over
/// loopback, one ingest+subscribe connection, collecting the pushed
/// warning stream.
std::vector<WarningKey> stream_warnings(std::uint16_t port,
                                        const std::vector<bgl::Event>& events,
                                        const std::string& stream_name) {
  Client client("127.0.0.1", port);
  const auto opened =
      client.open_stream(stream_name, kOpenIngest | kOpenSubscribe);

  std::vector<WarningKey> out;
  constexpr std::size_t kChunk = 1024;
  for (std::size_t offset = 0; offset < events.size(); offset += kChunk) {
    const std::size_t n = std::min(kChunk, events.size() - offset);
    client.send_events(
        opened.stream_id,
        std::span<const bgl::Event>(events.data() + offset, n));
    for (const auto& msg : client.take_warnings()) {
      EXPECT_EQ(msg.stream_id, opened.stream_id);
      out.push_back(key_of(msg.warning));
    }
  }
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);
  EXPECT_EQ(stats.events_ingested, events.size());
  EXPECT_EQ(stats.warnings_dropped, 0u);
  EXPECT_TRUE(stats.finished);
  // Everything the engine emitted reaches the subscriber — drain until
  // the daemon's own count is met (FINISHED frames after the last
  // warning guarantee this terminates).
  while (out.size() < stats.warnings_emitted) {
    for (const auto& msg : client.wait_warnings()) {
      out.push_back(key_of(msg.warning));
    }
  }
  EXPECT_EQ(out.size(), stats.warnings_emitted);
  std::sort(out.begin(), out.end());
  return out;
}

/// stream_warnings against a daemon of its own.
std::vector<WarningKey> daemon_warnings(const std::vector<bgl::Event>& events,
                                        net::DaemonConfig config,
                                        const std::string& stream_name) {
  testing::DaemonFixture fixture(std::move(config));
  return stream_warnings(fixture.port(), events, stream_name);
}

TEST(DaemonEquivalenceTest, AnlCorpusWarningStreamMatchesBatchPlane) {
  const auto events = corpus(loggen::MachineProfile::anl(), 1005);
  ASSERT_GT(events.size(), 0u);
  const auto reference = batch_warnings(events);
  ASSERT_GT(reference.size(), 0u) << "corpus produced no warnings to compare";
  const auto served =
      daemon_warnings(events, testing::daemon_test_config(4, 2), "anl");
  EXPECT_EQ(served, reference);
}

TEST(DaemonEquivalenceTest, SdscCorpusWarningStreamMatchesBatchPlane) {
  const auto events = corpus(loggen::MachineProfile::sdsc(), 1204);
  ASSERT_GT(events.size(), 0u);
  const auto reference = batch_warnings(events);
  ASSERT_GT(reference.size(), 0u) << "corpus produced no warnings to compare";
  const auto served =
      daemon_warnings(events, testing::daemon_test_config(4, 2), "sdsc");
  EXPECT_EQ(served, reference);
}

TEST(DaemonEquivalenceTest, ConcurrentStreamsEachMatchTheirBatchPlane) {
  // Four client threads, one connection and one named stream each, on
  // one daemon whose two reactors serve two connections each: every
  // stream must serve exactly its own corpus's batch warnings.
  const std::vector<std::pair<std::string, std::vector<bgl::Event>>> streams =
      {{"anl-1005", corpus(loggen::MachineProfile::anl(), 1005)},
       {"anl-1006", corpus(loggen::MachineProfile::anl(), 1006)},
       {"sdsc-1204", corpus(loggen::MachineProfile::sdsc(), 1204)},
       {"sdsc-1205", corpus(loggen::MachineProfile::sdsc(), 1205)}};

  testing::DaemonFixture fixture(testing::daemon_test_config(4, 2));
  std::vector<std::vector<WarningKey>> served(streams.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    clients.emplace_back([&, i] {
      const auto& [name, events] = streams[i];
      try {
        served[i] = stream_warnings(fixture.port(), events, name);
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << ": " << e.what();
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(fixture.stop().streams.size(), streams.size());

  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& [name, events] = streams[i];
    const auto reference = batch_warnings(events);
    ASSERT_GT(reference.size(), 0u) << name << " produced no warnings";
    EXPECT_EQ(served[i], reference) << name;
  }
}

TEST(DaemonEquivalenceTest, DurableIngestServesIdenticallyAndPersists) {
  const auto events = corpus(loggen::MachineProfile::anl(), 1005);
  const auto reference = batch_warnings(events);
  ASSERT_GT(reference.size(), 0u);

  testing::ScopedTempDir dir("dmlfpd-repo");
  auto config = testing::daemon_test_config(4, 2);
  config.repo_dir = dir.path();
  const auto served = daemon_warnings(events, std::move(config), "anl");
  EXPECT_EQ(served, reference);

  // The stream's repository sealed clean at drain and holds the whole
  // corpus in canonical order — `dmlfp run --repo` on it replays the
  // same machine the daemon served live.
  storage::OnDiskRepository repo(dir.sub("anl"));
  EXPECT_EQ(repo.open_info().torn_bytes_ignored, 0u);
  EXPECT_EQ(repo.open_info().indexes_rebuilt, 0u);
  ASSERT_EQ(repo.size(), events.size());
  auto canonical = events;
  std::stable_sort(canonical.begin(), canonical.end(),
                   bgl::EventTimeOrder{});
  const auto stored = storage::materialize(repo, repo.first_time(),
                                           repo.last_time() + 1);
  ASSERT_EQ(stored.size(), canonical.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    ASSERT_EQ(stored[i], canonical[i]) << "event " << i;
  }
}

}  // namespace
}  // namespace dml::net
