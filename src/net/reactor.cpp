#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/thread_name.hpp"

namespace dml::net {
namespace {

/// Bytes read per recv() call; frames larger than this assemble across
/// wakeups.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Hard cap on one connection's outbound backlog.  The daemon bounds
/// subscriber queues well below this; tripping it means the peer
/// stopped reading while the handler kept sending, and teardown beats
/// unbounded memory.
constexpr std::size_t kMaxOutboundBytes = 64u << 20;

}  // namespace

void ReactorConnection::send(std::span<const unsigned char> bytes) {
  if (closing_) return;
  out_.insert(out_.end(), bytes.begin(), bytes.end());
  want_write_ = true;
}

Reactor::Reactor(ReactorHandler& handler)
    : handler_(handler), epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_.valid()) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // id 0 = the wakeup doorbell
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.fd(), &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl wakeup: ") +
                             std::strerror(errno));
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::start(const std::string& name) {
  DML_CHECK_MSG(!thread_.joinable(), "reactor already started");
  thread_ = std::thread([this, name] {
    common::name_this_thread(name);
    run();
    const double cpu_seconds = common::thread_cpu_seconds();
    common::MutexLock lock(mutex_);
    stats_.cpu_seconds = cpu_seconds;
  });
}

void Reactor::stop() {
  if (!thread_.joinable()) return;
  {
    common::MutexLock lock(mutex_);
    pending_.stopping = true;
  }
  wakeup_.signal();
  thread_.join();
}

void Reactor::adopt(FdHandle fd) {
  {
    common::MutexLock lock(mutex_);
    pending_.adopted.push_back(std::move(fd));
  }
  wakeup_.signal();
}

void Reactor::notify(std::uint64_t conn_id) {
  {
    common::MutexLock lock(mutex_);
    pending_.kicks.push_back(conn_id);
  }
  wakeup_.signal();
}

ReactorStats Reactor::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

void Reactor::register_connection(FdHandle fd) {
  set_nonblocking(fd.get());
  set_nodelay(fd.get());
  static std::atomic<std::uint64_t> next_id{1};
  auto conn = std::make_unique<ReactorConnection>();
  conn->id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  conn->reactor_ = this;
  conn->fd_ = std::move(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id_;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd_.get(), &ev) != 0) {
    return;  // fd dies with `conn`; the peer sees a reset
  }
  {
    common::MutexLock lock(mutex_);
    ++stats_.connections_adopted;
  }
  connections_.emplace(conn->id_, std::move(conn));
}

void Reactor::teardown(std::uint64_t conn_id, const std::string& reason,
                       bool failed) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ReactorConnection& conn = *it->second;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn.fd_.get(), nullptr);
  handler_.on_disconnect(conn, reason);
  {
    common::MutexLock lock(mutex_);
    ++stats_.connections_closed;
    if (failed) ++stats_.connections_failed;
  }
  connections_.erase(it);
}

void Reactor::update_interest(ReactorConnection& conn) {
  const bool has_out = conn.pending_out() > 0;
  conn.want_write_ = has_out;
  epoll_event ev{};
  ev.events = EPOLLIN | (has_out ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id_;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd_.get(), &ev);
}

bool DML_REACTOR_CONTEXT Reactor::dispatch_frames(ReactorConnection& conn) {
  std::size_t offset = 0;
  while (true) {
    const DecodedFrame frame =
        decode_frame(conn.in_.data() + offset, conn.in_.size() - offset);
    if (frame.status == DecodeStatus::kNeedMore) break;
    if (frame.status == DecodeStatus::kBad) {
      conn.in_.erase(conn.in_.begin(),
                     conn.in_.begin() + static_cast<std::ptrdiff_t>(offset));
      teardown(conn.id_, "bad frame: " + frame.error, /*failed=*/true);
      return false;
    }
    {
      common::MutexLock lock(mutex_);
      ++stats_.frames_received;
    }
    const std::uint64_t conn_id = conn.id_;
    handler_.on_frame(conn, frame.type, frame.payload);
    // The handler may have torn the connection down (protocol error).
    if (connections_.find(conn_id) == connections_.end()) return false;
    offset += frame.consumed;
  }
  conn.in_.erase(conn.in_.begin(),
                 conn.in_.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

void DML_REACTOR_CONTEXT Reactor::handle_readable(ReactorConnection& conn) {
  try {
    switch (common::failpoint(common::failpoints::kNetRead)) {
      case common::FailAction::kDrop:
        return;  // level-triggered epoll re-reports; frame merely delayed
      case common::FailAction::kCorrupt:
        teardown(conn.id_, "net.read failpoint", /*failed=*/true);
        return;
      default:
        break;
    }
  } catch (const common::FailpointError&) {
    teardown(conn.id_, "net.read failpoint", /*failed=*/true);
    return;
  }

  while (true) {
    const std::size_t old_size = conn.in_.size();
    conn.in_.resize(old_size + kReadChunk);
    const ssize_t n =
        ::recv(conn.fd_.get(), conn.in_.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      conn.in_.resize(old_size + static_cast<std::size_t>(n));
      if (!dispatch_frames(conn)) return;
      if (static_cast<std::size_t>(n) < kReadChunk) return;
      continue;
    }
    conn.in_.resize(old_size);
    if (n == 0) {
      teardown(conn.id_, "peer closed", /*failed=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    teardown(conn.id_, std::string("recv: ") + std::strerror(errno),
             /*failed=*/true);
    return;
  }
}

void DML_REACTOR_CONTEXT Reactor::handle_writable(ReactorConnection& conn) {
  try {
    if (common::failpoint(common::failpoints::kNetWrite) ==
        common::FailAction::kCorrupt) {
      teardown(conn.id_, "net.write failpoint", /*failed=*/true);
      return;
    }
  } catch (const common::FailpointError&) {
    teardown(conn.id_, "net.write failpoint", /*failed=*/true);
    return;
  }

  while (conn.out_offset_ < conn.out_.size()) {
    const ssize_t n =
        ::send(conn.fd_.get(), conn.out_.data() + conn.out_offset_,
               conn.out_.size() - conn.out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    teardown(conn.id_, std::string("send: ") + std::strerror(errno),
             /*failed=*/true);
    return;
  }
  if (conn.out_offset_ == conn.out_.size()) {
    conn.out_.clear();
    conn.out_offset_ = 0;
    if (conn.closing_) {
      teardown(conn.id_, "closed after flush", /*failed=*/false);
      return;
    }
  } else if (conn.out_offset_ > (1u << 20)) {
    // Compact the flushed prefix so a long-lived subscriber connection
    // does not grow its buffer monotonically.
    conn.out_.erase(conn.out_.begin(),
                    conn.out_.begin() +
                        static_cast<std::ptrdiff_t>(conn.out_offset_));
    conn.out_offset_ = 0;
  }
  update_interest(conn);
}

void Reactor::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool stopping = false;
  while (!stopping) {
    const int n = ::epoll_wait(epoll_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing recoverable remains
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == 0) {
        wakeup_.drain();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // torn down this sweep
      ReactorConnection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        teardown(id, "connection error/hangup", /*failed=*/true);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        handle_readable(conn);
        if (connections_.find(id) == connections_.end()) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(conn);
    }

    // Doorbell work: adoptions, kicks, stop — after I/O so a kick
    // queued during this sweep still lands in the same iteration.
    PendingWork work;
    {
      common::MutexLock lock(mutex_);
      work.adopted.swap(pending_.adopted);
      work.kicks.swap(pending_.kicks);
      work.stopping = pending_.stopping;
    }
    for (FdHandle& fd : work.adopted) register_connection(std::move(fd));
    for (std::uint64_t id : work.kicks) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      ReactorConnection& conn = *it->second;
      handler_.on_kick(conn);
      if (connections_.find(id) == connections_.end()) continue;
      // on_kick queues bytes via send(); try an immediate flush so the
      // common (unblocked-socket) case needs no extra epoll round-trip.
      if (conn.pending_out() > 0) handle_writable(conn);
    }
    if (work.stopping) stopping = true;

    // After any handler ran, sync EPOLLOUT interest, finish
    // close-after-flush connections that are already drained, and
    // enforce the outbound backlog cap.  Teardowns mutate the table, so
    // collect ids first.
    std::vector<std::uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (std::uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      ReactorConnection& conn = *it->second;
      if (conn.pending_out() > kMaxOutboundBytes) {
        teardown(id, "outbound backlog overflow", /*failed=*/true);
      } else if (conn.closing_ && conn.pending_out() == 0) {
        teardown(id, "closed after flush", /*failed=*/false);
      } else if (conn.want_write_ || conn.pending_out() > 0) {
        update_interest(conn);
      }
    }
  }

  // Stop: close every connection through the normal disconnect path.
  while (!connections_.empty()) {
    teardown(connections_.begin()->first, "reactor stopped",
             /*failed=*/false);
  }
}

}  // namespace dml::net
