#include "net/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "logio/binary_format.hpp"

namespace dml::net {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

Client::Client(const std::string& address, std::uint16_t port,
               ClientConfig config)
    : fd_(connect_tcp(address, port)), config_(config) {
  std::vector<unsigned char> out;
  append_hello(out, HelloMsg{});
  send_bytes(out.data(), out.size());
  // The HELLO_ACK is the first frame; anything else is a protocol error
  // surfaced by dispatch().
  while (!hello_acked_) pump_incoming(/*blocking=*/true);
}

Client::~Client() {
  try {
    bye();
  } catch (...) {
    // Destructor: the socket closes either way.
  }
}

void Client::bye() {
  if (bye_sent_ || !fd_.valid()) return;
  bye_sent_ = true;
  std::vector<unsigned char> out;
  append_bye(out);
  send_bytes(out.data(), out.size());
  // The daemon releases this connection's ingest ownership before it
  // closes the socket, so once EOF arrives a reconnect on any reactor
  // finds the stream free.  Frames still in flight are discarded.
  unsigned char sink[4096];
  while (true) {
    const ssize_t n = ::recv(fd_.get(), sink, sizeof(sink), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, or the socket failed: either way it is gone
  }
  fd_.reset();
}

void Client::send_bytes(const unsigned char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_.get(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw ClientError(std::string("send: ") + std::strerror(errno));
  }
}

bool Client::pump_incoming(bool blocking) {
  const std::size_t old_size = in_.size();
  in_.resize(old_size + kReadChunk);
  const ssize_t n = ::recv(fd_.get(), in_.data() + old_size, kReadChunk,
                           blocking ? 0 : MSG_DONTWAIT);
  if (n < 0) {
    in_.resize(old_size);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;
    }
    throw ClientError(std::string("recv: ") + std::strerror(errno));
  }
  if (n == 0) {
    in_.resize(old_size);
    throw ClientError("connection closed by daemon");
  }
  in_.resize(old_size + static_cast<std::size_t>(n));

  std::size_t offset = 0;
  const auto consume = [&] {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(offset));
  };
  while (true) {
    const DecodedFrame frame =
        decode_frame(in_.data() + offset, in_.size() - offset);
    if (frame.status == DecodeStatus::kNeedMore) break;
    if (frame.status == DecodeStatus::kBad) {
      throw ClientError("bad frame from daemon: " + frame.error);
    }
    // A frame that throws (a non-fatal ERROR) is consumed too, so the
    // connection stays usable after the caller handles it.
    offset += frame.consumed;
    try {
      dispatch(frame.type, frame.payload);
    } catch (...) {
      consume();
      throw;
    }
  }
  consume();
  return true;
}

void Client::dispatch(FrameType type, std::span<const unsigned char> payload) {
  switch (type) {
    case FrameType::kHelloAck: {
      const auto msg = decode_hello(payload);
      if (!msg || msg->version != kProtocolVersion) {
        throw ClientError("daemon speaks an unsupported protocol version");
      }
      hello_acked_ = true;
      return;
    }
    case FrameType::kStreamOpened: {
      const auto msg = decode_stream_opened(payload);
      if (!msg) throw ClientError("bad STREAM_OPENED payload");
      opened_ = *msg;
      return;
    }
    case FrameType::kIngestAck: {
      const auto msg = decode_ingest_ack(payload);
      if (!msg) throw ClientError("bad INGEST_ACK payload");
      StreamState& state = state_of(msg->stream_id);
      settle_reply(state);
      drop_acknowledged(state, msg->next_seq);
      return;
    }
    case FrameType::kRetryAfter: {
      const auto msg = decode_retry_after(payload);
      if (!msg) throw ClientError("bad RETRY_AFTER payload");
      StreamState& state = state_of(msg->stream_id);
      const bool stale = state.stale_replies > 0;
      settle_reply(state);
      drop_acknowledged(state, msg->expected_seq);
      // A refusal of a frame sent before the latest rewind: that rewind
      // already resent it, so the reply only acknowledges.
      if (stale) return;
      // Go-back-N rewind: pace, resend the rest of the window in order.
      // Every reply still owed answers a frame sent before this rewind.
      ++retries_;
      state.stale_replies = state.owed_replies;
      if (msg->retry_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(msg->retry_ms));
      }
      for (const InFlight& inflight : state.window) {
        send_bytes(inflight.frame.data(), inflight.frame.size());
      }
      state.owed_replies += state.window.size();
      retry_finish_ = true;
      return;
    }
    case FrameType::kWarning: {
      const auto msg = decode_warning(payload);
      if (!msg) throw ClientError("bad WARNING payload");
      warnings_.push_back(*msg);
      return;
    }
    case FrameType::kFinished: {
      const auto msg = decode_stream_stats(payload);
      if (!msg) throw ClientError("bad FINISHED payload");
      state_of(msg->stream_id).finished = *msg;
      ++finished_seen_;
      return;
    }
    case FrameType::kStatsReply: {
      const auto msg = decode_stream_stats(payload);
      if (!msg) throw ClientError("bad STATS_REPLY payload");
      stats_reply_ = *msg;
      return;
    }
    case FrameType::kError: {
      const auto msg = decode_error(payload);
      if (!msg) throw ClientError("bad ERROR payload");
      throw ClientError("daemon error (" + std::string(to_string(msg->code)) +
                            "): " + msg->message,
                        msg->code);
    }
    default:
      throw ClientError("unexpected frame from daemon: " +
                        std::string(to_string(type)));
  }
}

Client::StreamState& Client::state_of(std::uint32_t stream_id) {
  return streams_[stream_id];
}

void Client::settle_reply(StreamState& state) {
  // A RETRY_AFTER owed nothing answers a FINISH_STREAM: every INGEST
  // frame's reply precedes it.
  if (state.owed_replies == 0) return;
  --state.owed_replies;
  if (state.stale_replies > 0) --state.stale_replies;
}

void Client::drop_acknowledged(StreamState& state, std::uint64_t next_seq) {
  while (!state.window.empty() && state.window.front().seq < next_seq) {
    state.window.pop_front();
  }
}

StreamOpenedMsg Client::open_stream(const std::string& name,
                                    std::uint8_t flags) {
  opened_.reset();
  std::vector<unsigned char> out;
  append_open_stream(out, OpenStreamMsg{flags, name});
  send_bytes(out.data(), out.size());
  while (!opened_.has_value()) pump_incoming(/*blocking=*/true);
  StreamState& state = state_of(opened_->stream_id);
  state.next_seq = opened_->next_seq;
  state.window.clear();
  // Frames of the abandoned window may still be answered: those replies
  // only acknowledge.
  state.stale_replies = state.owed_replies;
  return *opened_;
}

void Client::send_frame_tracked(StreamState& state, std::uint32_t stream_id,
                                std::vector<unsigned char> frame) {
  (void)stream_id;
  await_window(state);
  send_bytes(frame.data(), frame.size());
  state.window.push_back(InFlight{state.next_seq, std::move(frame)});
  ++state.next_seq;
  ++state.owed_replies;
  // Opportunistically reap acks so the window reflects reality.
  pump_incoming(/*blocking=*/false);
}

void Client::await_window(StreamState& state) {
  // In-flight (unacknowledged) frames before a send blocks on the ack
  // stream.
  constexpr std::size_t kWindowFrames = 8;
  while (state.window.size() >= kWindowFrames) {
    pump_incoming(/*blocking=*/true);
  }
}

void Client::flush_pending(std::uint32_t stream_id, StreamState& state) {
  if (state.pending.empty()) return;
  std::vector<unsigned char> frame;
  append_ingest_events(frame, stream_id, state.next_seq, state.pending);
  state.pending.clear();
  send_frame_tracked(state, stream_id, std::move(frame));
}

void Client::send_events(std::uint32_t stream_id,
                         std::span<const bgl::Event> events) {
  StreamState& state = state_of(stream_id);
  for (const bgl::Event& event : events) {
    state.pending.push_back(event);
    if (state.pending.size() >= config_.batch_events) {
      flush_pending(stream_id, state);
    }
  }
}

void Client::send_records(std::uint32_t stream_id,
                          std::span<const bgl::RasRecord> records) {
  for (const bgl::RasRecord& record : records) {
    if (kIngestHeader + logio::binary_serialized_size(record) >
        kMaxFramePayload) {
      throw ClientError("record " + std::to_string(record.record_id) +
                        " does not fit in one frame: " +
                        std::to_string(record.entry_data.size()) +
                        " bytes of entry data");
    }
  }
  StreamState& state = state_of(stream_id);
  flush_pending(stream_id, state);
  std::size_t offset = 0;
  while (offset < records.size()) {
    std::size_t n = 0;
    std::size_t payload = kIngestHeader;
    while (offset + n < records.size() && n < config_.batch_events) {
      payload += logio::binary_serialized_size(records[offset + n]);
      if (payload > kMaxFramePayload) break;
      ++n;
    }
    std::vector<unsigned char> frame;
    append_ingest_records(frame, stream_id, state.next_seq,
                          records.subspan(offset, n));
    send_frame_tracked(state, stream_id, std::move(frame));
    offset += n;
  }
}

void Client::flush(std::uint32_t stream_id) {
  StreamState& state = state_of(stream_id);
  flush_pending(stream_id, state);
  while (!state.window.empty()) pump_incoming(/*blocking=*/true);
}

StreamStatsMsg Client::finish_stream(std::uint32_t stream_id) {
  flush(stream_id);
  StreamState& state = state_of(stream_id);
  while (!state.finished.has_value()) {
    retry_finish_ = false;
    std::vector<unsigned char> out;
    append_finish_stream(out, FinishStreamMsg{stream_id, state.next_seq});
    send_bytes(out.data(), out.size());
    // A RETRY_AFTER here means the daemon saw fewer frames than we
    // sent (rewound in dispatch); re-flush and re-issue FINISH.
    while (!state.finished.has_value() && !retry_finish_) {
      pump_incoming(/*blocking=*/true);
    }
    if (retry_finish_) flush(stream_id);
  }
  return *state.finished;
}

StreamStatsMsg Client::stats(std::uint32_t stream_id) {
  stats_reply_.reset();
  std::vector<unsigned char> out;
  append_stats(out, StatsMsg{stream_id});
  send_bytes(out.data(), out.size());
  while (!stats_reply_.has_value()) pump_incoming(/*blocking=*/true);
  return *stats_reply_;
}

std::vector<WarningMsg> Client::take_warnings() {
  pump_incoming(/*blocking=*/false);
  std::vector<WarningMsg> result;
  result.swap(warnings_);
  return result;
}

std::vector<WarningMsg> Client::wait_warnings() {
  // A FINISHED ends the wait too: a subscriber whose queue overflowed
  // into all-drops would otherwise block forever on a warning that is
  // never coming (the finished() accessor is the caller's signal).
  const std::uint64_t seen = finished_seen_;
  while (warnings_.empty() && finished_seen_ == seen) {
    pump_incoming(/*blocking=*/true);
  }
  std::vector<WarningMsg> result;
  result.swap(warnings_);
  return result;
}

std::optional<StreamStatsMsg> Client::finished(
    std::uint32_t stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return std::nullopt;
  return it->second.finished;
}

}  // namespace dml::net
