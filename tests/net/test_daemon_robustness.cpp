// Daemon robustness: a stalled subscriber must never stall ingest (its
// bounded queue overflows and the overflow is counted, per-subscriber);
// an ingest connection dying mid-session must leave the stream's
// predictor state intact for reconnect-with-resume; and protocol
// violations (busy stream, raw records into a durable stream, a durable
// stream name that is not one plain path component or already holds a
// repository, event time regression, a records frame the reactor's
// check refuses) surface as typed ERROR frames, not as corrupted engine
// state or a dead daemon.  A stream whose pump fails tells its owner
// why, and the daemon serves other streams on.  The client frames raw
// records by bytes as well as by count, refuses a record no frame can
// hold before it sends anything, and pays one rewind for a burst of
// refused frames.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "loggen/generator.hpp"
#include "logio/binary_format.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "online/sharded_engine.hpp"
#include "storage/disk_repository.hpp"
#include "support/socket_fixture.hpp"
#include "support/temp_dir.hpp"
#include "support/test_fixtures.hpp"
#include "support/warning_key.hpp"

namespace dml::net {
namespace {

/// Cached 8-week ANL corpus shared by every test in this file.
const std::vector<bgl::Event>& corpus() {
  static const std::vector<bgl::Event> events = [] {
    loggen::MachineProfile profile = loggen::MachineProfile::anl();
    profile.weeks = 8;
    return loggen::LogGenerator(profile, 1005).generate_unique_events();
  }();
  return events;
}

using testing::key_of;
using testing::WarningKey;

/// Warnings the equivalent in-process engine emits on corpus() under
/// the fixture's default flags, sorted — the oracle for "state was not
/// corrupted".
const std::vector<WarningKey>& reference_warnings() {
  static const std::vector<WarningKey> keys = [] {
    const auto config = online::sharded_config_from_driver(
        [] {
          online::DriverConfig driver;
          driver.training_weeks = 4;
          driver.retrain_weeks = 2;
          return driver;
        }(),
        2);
    std::vector<WarningKey> out;
    online::ShardedEngine engine(
        config, [&](const predict::Warning& w) { out.push_back(key_of(w)); });
    for (const auto& event : corpus()) engine.consume(event);
    engine.finish();
    std::sort(out.begin(), out.end());
    return out;
  }();
  return keys;
}

std::size_t reference_warning_count() { return reference_warnings().size(); }

void send_all(Client& client, std::uint32_t stream_id,
              std::span<const bgl::Event> events) {
  constexpr std::size_t kChunk = 1024;
  for (std::size_t offset = 0; offset < events.size(); offset += kChunk) {
    const std::size_t n = std::min(kChunk, events.size() - offset);
    client.send_events(stream_id, events.subspan(offset, n));
  }
}

TEST(DaemonRobustnessTest, StalledSubscriberNeverStallsIngest) {
  // Subscriber queue of zero: every warning overflows immediately —
  // the deterministic worst case of a subscriber that consumes
  // nothing.  Ingest must run to completion regardless, and the
  // subscriber's FINISHED must account for every dropped warning.
  auto config = testing::daemon_test_config(4, 2);
  config.subscriber_queue_warnings = 0;
  testing::DaemonFixture fixture(std::move(config));

  Client subscriber("127.0.0.1", fixture.port());
  const auto sub_open = subscriber.open_stream("s", kOpenSubscribe);
  // The subscriber now goes silent: it reads nothing until the end.

  Client ingest("127.0.0.1", fixture.port());
  const auto opened = ingest.open_stream("s", kOpenIngest);
  EXPECT_EQ(opened.stream_id, sub_open.stream_id);
  send_all(ingest, opened.stream_id, corpus());
  const StreamStatsMsg stats = ingest.finish_stream(opened.stream_id);
  EXPECT_EQ(stats.events_ingested, corpus().size());
  EXPECT_EQ(stats.warnings_emitted, reference_warning_count());
  ASSERT_GT(stats.warnings_emitted, 0u);

  // The stalled subscriber still gets its FINISHED, with the whole
  // stream counted as dropped on its queue.
  while (!subscriber.finished(sub_open.stream_id).has_value()) {
    subscriber.wait_warnings();
  }
  EXPECT_TRUE(subscriber.take_warnings().empty());
  const auto sub_stats = *subscriber.finished(sub_open.stream_id);
  EXPECT_EQ(sub_stats.warnings_dropped, stats.warnings_emitted);
}

TEST(DaemonRobustnessTest, SlowSubscriberGetsTheTailAndDropsAreCounted) {
  // A queue of one: the subscriber keeps up only when the reactor
  // drains between emissions.  Whatever it receives plus whatever its
  // FINISHED counts as dropped must reconcile exactly with the
  // engine's emission count — nothing lost without being counted.
  auto config = testing::daemon_test_config(4, 2);
  config.subscriber_queue_warnings = 1;
  testing::DaemonFixture fixture(std::move(config));

  Client subscriber("127.0.0.1", fixture.port());
  const auto sub_open = subscriber.open_stream("s", kOpenSubscribe);

  Client ingest("127.0.0.1", fixture.port());
  const auto opened = ingest.open_stream("s", kOpenIngest);
  send_all(ingest, opened.stream_id, corpus());
  const StreamStatsMsg stats = ingest.finish_stream(opened.stream_id);
  ASSERT_GT(stats.warnings_emitted, 0u);

  std::size_t received = 0;
  while (!subscriber.finished(sub_open.stream_id).has_value()) {
    received += subscriber.wait_warnings().size();
  }
  received += subscriber.take_warnings().size();
  const auto sub_stats = *subscriber.finished(sub_open.stream_id);
  EXPECT_EQ(received + sub_stats.warnings_dropped, stats.warnings_emitted);
}

TEST(DaemonRobustnessTest, ReconnectWithResumeDoesNotCorruptStreamState) {
  testing::DaemonFixture fixture(testing::daemon_test_config(4, 2));
  const auto& events = corpus();
  const std::size_t half = events.size() / 2;

  std::uint32_t stream_id = 0;
  std::uint64_t frames_sent = 0;
  {
    // First connection: half the corpus, fully acknowledged, then the
    // connection goes away without finishing the stream.
    Client first("127.0.0.1", fixture.port());
    const auto opened = first.open_stream("r");
    EXPECT_EQ(opened.next_seq, 0u);
    stream_id = opened.stream_id;
    send_all(first, stream_id, std::span(events.data(), half));
    first.flush(stream_id);
    // The client frames batches of ClientConfig::batch_events (512);
    // flush() sends the partial tail as one more frame.
    frames_sent = (half + 511) / 512;
  }

  // Second connection: the stream is still there, ownership transfers,
  // and STREAM_OPENED says exactly where ingest must resume.
  Client second("127.0.0.1", fixture.port());
  const auto reopened = second.open_stream("r");
  EXPECT_EQ(reopened.stream_id, stream_id);
  EXPECT_EQ(reopened.next_seq, frames_sent);
  send_all(second, stream_id,
           std::span(events.data() + half, events.size() - half));
  const StreamStatsMsg stats = second.finish_stream(stream_id);

  // The engine saw one uninterrupted stream: every event, and exactly
  // the warning count of the single-connection batch replay.
  EXPECT_EQ(stats.events_ingested, events.size());
  EXPECT_EQ(stats.warnings_emitted, reference_warning_count());
  EXPECT_TRUE(stats.finished);
}

TEST(DaemonRobustnessTest, RefusedBurstCostsOneRewind) {
  // A one-frame ingest queue in front of slowed shard workers refuses
  // most of every window of eight in-flight frames.  The client pays
  // one pause and one resend per refused burst: the RETRY_AFTERs that
  // answer frames sent before its rewind only acknowledge.  Ingest
  // stays exactly-once and the warnings are the in-process engine's.
  // Before arming: the in-process engine passes the same failpoint.
  const auto& expected = reference_warnings();
  auto& registry = common::FailpointRegistry::instance();
  registry.reset();
  registry.reseed(testing::fuzz_seed(6401));
  ASSERT_TRUE(registry.arm_from_string("shard.worker=delay:ms=1:p=0.01"));

  auto config = testing::daemon_test_config(4, 2);
  config.ingest_queue_frames = 1;
  testing::DaemonFixture fixture(std::move(config));
  ClientConfig client_config;
  client_config.batch_events = 64;
  Client client("127.0.0.1", fixture.port(), client_config);
  const auto opened =
      client.open_stream("burst", kOpenIngest | kOpenSubscribe);
  std::vector<WarningKey> served;
  const auto collect = [&](const std::vector<WarningMsg>& messages) {
    for (const auto& msg : messages) served.push_back(key_of(msg.warning));
  };
  constexpr std::size_t kChunk = 1024;
  const auto& events = corpus();
  for (std::size_t offset = 0; offset < events.size(); offset += kChunk) {
    const std::size_t n = std::min(kChunk, events.size() - offset);
    client.send_events(opened.stream_id, std::span(events).subspan(offset, n));
    collect(client.take_warnings());
  }
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);
  registry.reset();
  while (served.size() < stats.warnings_emitted) {
    collect(client.wait_warnings());
  }

  EXPECT_GT(stats.batches_refused, 0u);
  EXPECT_LT(client.retries(), stats.batches_refused);
  EXPECT_EQ(stats.events_ingested, events.size());
  EXPECT_EQ(stats.records_rejected, 0u);
  EXPECT_EQ(stats.warnings_dropped, 0u);
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served, expected);
}

TEST(DaemonRobustnessTest, PumpFailureReachesTheClientAndSparesOtherStreams) {
  // The engine throws halfway through a stream.  The ERROR answering
  // the owner's next INGEST_* or FINISH_STREAM (or its registered
  // FINISH) carries the cause, the drain report keeps it, and a stream
  // opened afterwards on the same daemon is served in full.
  // Before arming: the in-process engine passes the same failpoint.
  const auto& expected = reference_warnings();
  auto& registry = common::FailpointRegistry::instance();
  registry.reset();
  ASSERT_TRUE(registry.arm_from_string(
      "engine.feed=throw:after=" + std::to_string(corpus().size() / 2) +
      ":max=1"));

  testing::DaemonFixture fixture(testing::daemon_test_config(4, 2));
  std::uint32_t failed_id = 0;
  {
    Client client("127.0.0.1", fixture.port());
    const auto opened = client.open_stream("failing");
    failed_id = opened.stream_id;
    try {
      send_all(client, opened.stream_id, corpus());
      client.finish_stream(opened.stream_id);
      FAIL() << "a stream whose engine threw finished cleanly";
    } catch (const ClientError& e) {
      EXPECT_NE(std::string(e.what()).find("failpoint triggered: engine.feed"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(registry.stats("engine.feed").triggers, 1u);
  registry.reset();

  Client client("127.0.0.1", fixture.port());
  const auto opened =
      client.open_stream("healthy", kOpenIngest | kOpenSubscribe);
  send_all(client, opened.stream_id, corpus());
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);
  std::vector<WarningKey> served;
  while (served.size() < stats.warnings_emitted) {
    for (const auto& msg : client.wait_warnings()) {
      served.push_back(key_of(msg.warning));
    }
  }
  EXPECT_EQ(stats.events_ingested, corpus().size());
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served, expected);
  client.bye();

  const auto failures = fixture.stop().stream_failures;
  ASSERT_EQ(failures.size(), 1u);
  ASSERT_TRUE(failures.contains(failed_id));
  EXPECT_NE(failures.at(failed_id).find("failpoint triggered: engine.feed"),
            std::string::npos);
}

/// Names of every thread of this process, from /proc.
std::set<std::string> thread_names() {
  std::set<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.insert(name);
  }
  return names;
}

TEST(DaemonRobustnessTest, ThreadsAreNamedByRole) {
  // Two reactors, the acceptor, and per stream a pump and two shard
  // workers: each shows its role in ps -L, top -H and /proc.  A thread
  // names itself as it starts, so the names may trail the reply a little.
  testing::DaemonFixture fixture(testing::daemon_test_config());
  Client client("127.0.0.1", fixture.port());
  const auto opened = client.open_stream("named");
  const std::set<std::string> expected = {
      "dml-reactor-0", "dml-reactor-1", "dml-accept", "dml-shard-0",
      "dml-shard-1", "dml-pump-" + std::to_string(opened.stream_id)};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::set<std::string> missing = expected;
  while (!missing.empty() && std::chrono::steady_clock::now() < deadline) {
    const auto names = thread_names();
    std::erase_if(missing,
                  [&](const std::string& n) { return names.contains(n); });
    if (!missing.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(missing.empty())
      << (missing.empty() ? std::string() : *missing.begin());
}

TEST(DaemonRobustnessTest, IngestOwnershipIsExclusiveUntilDisconnect) {
  testing::DaemonFixture fixture(testing::daemon_test_config());
  auto first = std::make_unique<Client>("127.0.0.1", fixture.port());
  first->open_stream("owned");

  Client second("127.0.0.1", fixture.port());
  try {
    second.open_stream("owned");
    FAIL() << "second ingest open on an owned stream was accepted";
  } catch (const ClientError& e) {
    ASSERT_TRUE(e.code().has_value());
    EXPECT_EQ(*e.code(), ErrorCode::kStreamBusy);
  }

  // Subscribing to the owned stream is fine on a fresh connection...
  Client watcher("127.0.0.1", fixture.port());
  EXPECT_NO_THROW(watcher.open_stream("owned", kOpenSubscribe));

  // ...and ingest ownership is claimable again once the owner is gone.
  first.reset();
  Client third("127.0.0.1", fixture.port());
  EXPECT_NO_THROW(third.open_stream("owned"));
}

TEST(DaemonRobustnessTest, DurableStreamRejectsRawRecordFrames) {
  testing::ScopedTempDir dir("dmlfpd-robust");
  auto config = testing::daemon_test_config();
  config.repo_dir = dir.path();
  testing::DaemonFixture fixture(std::move(config));

  Client client("127.0.0.1", fixture.port());
  const auto opened = client.open_stream("durable");
  bgl::RasRecord record;
  record.record_id = 1;
  record.event_time = 100;
  record.location = bgl::Location::midplane_scope(0, 0);
  record.entry_data = "raw record into a durable stream";
  try {
    client.send_records(opened.stream_id, std::span(&record, 1));
    client.flush(opened.stream_id);
    FAIL() << "raw records into a durable stream were accepted";
  } catch (const ClientError& e) {
    ASSERT_TRUE(e.code().has_value());
    EXPECT_EQ(*e.code(), ErrorCode::kProtocol);
  }
}

TEST(DaemonRobustnessTest, DurableStreamNameMustStayInsideTheRepository) {
  testing::ScopedTempDir dir("dmlfpd-robust");
  const std::string root = dir.sub("repo");
  auto config = testing::daemon_test_config();
  config.repo_dir = root;
  testing::DaemonFixture fixture(std::move(config));

  Client client("127.0.0.1", fixture.port());
  const std::vector<std::string> names = {"../escaped", "a/b", ".", "..",
                                          std::string("nul\0name", 8)};
  for (const std::string& name : names) {
    try {
      client.open_stream(name);
      ADD_FAILURE() << "stream name '" << name << "' was accepted";
    } catch (const ClientError& e) {
      ASSERT_TRUE(e.code().has_value());
      EXPECT_EQ(*e.code(), ErrorCode::kProtocol);
    }
  }
  EXPECT_FALSE(std::filesystem::exists(dir.sub("escaped")));
  // The refusals were not fatal: the same connection opens a plain name,
  // and only that stream was ever registered.
  EXPECT_NO_THROW(client.open_stream("plain"));
  EXPECT_TRUE(std::filesystem::exists(root + "/plain/repo.meta"));
  client.bye();
  EXPECT_EQ(fixture.stop().streams.size(), 1u);
}

TEST(DaemonRobustnessTest, PersistedDurableStreamIsRefusedNotFatal) {
  testing::ScopedTempDir dir("dmlfpd-robust");
  const auto events = std::span(corpus()).first(2000);
  {
    auto config = testing::daemon_test_config();
    config.repo_dir = dir.path();
    testing::DaemonFixture fixture(std::move(config));
    Client client("127.0.0.1", fixture.port());
    const auto opened = client.open_stream("persisted");
    send_all(client, opened.stream_id, events);
    client.finish_stream(opened.stream_id);
  }

  // A restarted daemon on the same root: the persisted name is refused
  // with an ERROR (resuming it is not supported), the daemon and the
  // connection carry on, and the repository is left as it was.
  auto config = testing::daemon_test_config();
  config.repo_dir = dir.path();
  testing::DaemonFixture fixture(std::move(config));
  Client client("127.0.0.1", fixture.port());
  try {
    client.open_stream("persisted");
    FAIL() << "a persisted stream name was opened as a fresh stream";
  } catch (const ClientError& e) {
    ASSERT_TRUE(e.code().has_value());
    EXPECT_EQ(*e.code(), ErrorCode::kStreamBusy);
  }
  EXPECT_NO_THROW(client.open_stream("fresh"));
  client.bye();
  EXPECT_EQ(fixture.stop().streams.size(), 1u);
  EXPECT_EQ(storage::OnDiskRepository(dir.sub("persisted")).size(),
            events.size());
}

TEST(DaemonRobustnessTest, EventTimeRegressionIsRefusedAsOutOfOrder) {
  testing::DaemonFixture fixture(testing::daemon_test_config());
  Client client("127.0.0.1", fixture.port());
  const auto opened = client.open_stream("ordered");

  std::vector<bgl::Event> batch(2);
  batch[0].time = 1000;
  batch[0].category = 1;
  batch[1].time = 500;  // regression inside the batch
  batch[1].category = 1;
  try {
    client.send_events(opened.stream_id, batch);
    client.flush(opened.stream_id);
    FAIL() << "time-regressing batch was admitted";
  } catch (const ClientError& e) {
    ASSERT_TRUE(e.code().has_value());
    EXPECT_EQ(*e.code(), ErrorCode::kOutOfOrder);
  }
}

/// A bare protocol connection, for frames the Client will not build.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port)
      : fd_(connect_tcp("127.0.0.1", port)) {}

  void send(const std::vector<unsigned char>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The daemon's next frame; nullopt once it closes the connection.
  std::optional<std::pair<FrameType, std::vector<unsigned char>>> next() {
    while (true) {
      const DecodedFrame frame = decode_frame(buffer_.data(), buffer_.size());
      if (frame.status == DecodeStatus::kFrame) {
        std::pair<FrameType, std::vector<unsigned char>> result{
            frame.type, {frame.payload.begin(), frame.payload.end()}};
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(frame.consumed));
        return result;
      }
      EXPECT_EQ(frame.status, DecodeStatus::kNeedMore) << frame.error;
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) {
        ADD_FAILURE() << "no reply from the daemon within 10 s";
        return std::nullopt;
      }
      unsigned char chunk[4096];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buffer_.insert(buffer_.end(), chunk, chunk + n);
    }
  }

  /// Sends `frame` and returns the type of the daemon's reply.
  std::optional<FrameType> exchange(const std::vector<unsigned char>& frame) {
    send(frame);
    const auto reply = next();
    if (!reply) return std::nullopt;
    last_payload_ = reply->second;
    return reply->first;
  }

  const std::vector<unsigned char>& last_payload() const {
    return last_payload_;
  }

 private:
  FdHandle fd_;
  std::vector<unsigned char> buffer_;
  std::vector<unsigned char> last_payload_;
};

std::vector<bgl::RasRecord> raw_records(std::size_t n, TimeSec first = 1000) {
  std::vector<bgl::RasRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].record_id = i;
    records[i].event_time = first + static_cast<TimeSec>(i);
    records[i].location = bgl::Location::midplane_scope(0, 0);
    records[i].entry_data = "raw record " + std::to_string(i);
  }
  return records;
}

/// Opens an ingest stream on a raw connection, admits one valid frame
/// of `admitted` records, then sends `bad` (a payload for seq 1): the
/// reply must be a fatal kProtocol ERROR with the stream's admitted
/// count untouched, and a second connection must still be served.
void expect_refused_records_frame(
    const std::function<std::vector<unsigned char>(std::uint32_t)>& bad) {
  testing::DaemonFixture fixture(testing::daemon_test_config());
  RawConnection raw(fixture.port());
  std::vector<unsigned char> frame;
  append_hello(frame, HelloMsg{});
  ASSERT_EQ(raw.exchange(frame), FrameType::kHelloAck);
  frame.clear();
  append_open_stream(frame, OpenStreamMsg{kOpenIngest, "raw"});
  ASSERT_EQ(raw.exchange(frame), FrameType::kStreamOpened);
  const auto opened = decode_stream_opened(raw.last_payload());
  ASSERT_TRUE(opened.has_value());
  const std::uint32_t stream_id = opened->stream_id;

  const auto admitted = raw_records(16);
  frame.clear();
  append_ingest_records(frame, stream_id, 0, admitted);
  ASSERT_EQ(raw.exchange(frame), FrameType::kIngestAck);

  frame.clear();
  append_frame(frame, FrameType::kIngestRecords, bad(stream_id));
  ASSERT_EQ(raw.exchange(frame), FrameType::kError);
  const auto error = decode_error(raw.last_payload());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kProtocol);
  EXPECT_FALSE(raw.next().has_value()) << "a fatal ERROR closes the connection";

  // The daemon is alive, the stream admitted nothing more, and a new
  // connection resumes it at the next sequence number.
  Client second("127.0.0.1", fixture.port());
  EXPECT_EQ(second.stats(stream_id).events_ingested, admitted.size());
  const auto reopened = second.open_stream("raw");
  EXPECT_EQ(reopened.next_seq, 1u);
  second.send_records(stream_id, raw_records(8, 2000));
  const StreamStatsMsg stats = second.finish_stream(stream_id);
  EXPECT_EQ(stats.events_ingested, admitted.size() + 8);
  EXPECT_TRUE(stats.finished);
}

TEST(DaemonRobustnessTest, HostileRecordCountIsAProtocolErrorNotAnAbort) {
  // count = 2^32 - 1 in a 25-byte frame: before the check bounded the
  // count by the bytes present, the reactor's reserve() threw
  // std::bad_alloc and nothing caught it.
  expect_refused_records_frame([](std::uint32_t stream_id) {
    std::vector<unsigned char> payload;
    put_u32(payload, stream_id);
    put_u64(payload, 1);
    put_u32(payload, 0xFFFFFFFFu);
    return payload;
  });
}

TEST(DaemonRobustnessTest, RecordWithABadCrcIsAProtocolError) {
  // A valid frame CRC around one record whose own CRC fails.
  expect_refused_records_frame([](std::uint32_t stream_id) {
    std::vector<unsigned char> frame;
    append_ingest_records(frame, stream_id, 1, raw_records(4));
    std::vector<unsigned char> payload(frame.begin() + 5, frame.end() - 4);
    payload.back() ^= 0x01;  // the last record's CRC trailer
    return payload;
  });
}

/// The frames the daemon has admitted on a stream: re-opening the stream
/// on its ingest connection reports the next sequence number it expects.
std::uint64_t frames_admitted(Client& client, const std::string& name,
                              std::uint32_t stream_id) {
  client.flush(stream_id);
  return client.open_stream(name).next_seq;
}

TEST(DaemonRobustnessTest, LargeRecordsAreIngestedAFrameEach) {
  testing::DaemonFixture fixture(testing::daemon_test_config());
  Client client("127.0.0.1", fixture.port());
  const auto opened = client.open_stream("large");
  // Together the two records pass kMaxFramePayload, so each takes a
  // frame of its own.
  auto large = raw_records(2);
  for (auto& record : large) record.entry_data.assign(600 * 1024, 'x');
  client.send_records(opened.stream_id, large);
  EXPECT_EQ(frames_admitted(client, "large", opened.stream_id), 2u);
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);
  EXPECT_EQ(stats.events_ingested, 2u);
  EXPECT_EQ(stats.batches_refused, 0u);
}

TEST(DaemonRobustnessTest, OrdinaryRecordsStillGoBatchEventsToAFrame) {
  testing::DaemonFixture fixture(testing::daemon_test_config());
  Client client("127.0.0.1", fixture.port());
  const auto opened = client.open_stream("ordinary");
  const std::size_t batch = ClientConfig{}.batch_events;
  client.send_records(opened.stream_id, raw_records(2 * batch + 6));
  EXPECT_EQ(frames_admitted(client, "ordinary", opened.stream_id), 3u);
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);
  EXPECT_EQ(stats.events_ingested, 2 * batch + 6);
}

TEST(DaemonRobustnessTest, DrainReportsEveryThreadsCpuTimeOnce) {
  // One reactor, the acceptor, and one stream's pump and two shard
  // workers: wait() lists each exactly once, the stream on the pump and
  // shard lines, and the pump, which read every record, used CPU.
  net::DaemonConfig config = testing::daemon_test_config();
  config.reactors = 1;
  testing::DaemonFixture fixture(config);
  std::uint32_t stream_id = 0;
  {
    Client client("127.0.0.1", fixture.port());
    stream_id = client.open_stream("cpu").stream_id;
    client.send_records(stream_id, raw_records(20'000));
    EXPECT_EQ(client.finish_stream(stream_id).events_ingested, 20'000u);
  }
  const DaemonStats stats = fixture.stop();
  std::multiset<std::pair<std::string, std::uint32_t>> listed;
  double pump_cpu_seconds = 0.0;
  for (const ThreadCpuStats& thread : stats.threads) {
    listed.emplace(thread.name, thread.stream_id);
    EXPECT_GE(thread.cpu_seconds, 0.0) << thread.name;
    if (thread.name.starts_with("dml-pump-")) {
      pump_cpu_seconds = thread.cpu_seconds;
    }
  }
  const std::multiset<std::pair<std::string, std::uint32_t>> expected = {
      {"dml-reactor-0", 0},
      {"dml-accept", 0},
      {"dml-pump-" + std::to_string(stream_id), stream_id},
      {"dml-shard-0", stream_id},
      {"dml-shard-1", stream_id}};
  EXPECT_EQ(listed, expected);
  EXPECT_GT(pump_cpu_seconds, 0.0);
  EXPECT_TRUE(fixture.daemon().stats().threads.empty());
}

TEST(DaemonRobustnessTest, RecordNoFrameCanHoldThrowsBeforeSending) {
  testing::DaemonFixture fixture(testing::daemon_test_config());
  Client client("127.0.0.1", fixture.port());
  const auto opened = client.open_stream("oversized");
  auto records = raw_records(3);
  records[1].entry_data.assign(logio::kMaxEntryData, 'x');
  EXPECT_THROW(client.send_records(opened.stream_id, records), ClientError);
  // Nothing of the refused call was sent, and the connection still
  // serves the stream.
  client.send_records(opened.stream_id, raw_records(4));
  const StreamStatsMsg stats = client.finish_stream(opened.stream_id);
  EXPECT_EQ(stats.events_ingested, 4u);
  EXPECT_EQ(stats.batches_refused, 0u);
}

}  // namespace
}  // namespace dml::net
