// Statistics helpers, the span recorder and the daemon child process.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

WarningKey key_of(const predict::Warning& warning) {
  return {warning.issued_at,
          warning.deadline,
          warning.category ? static_cast<int>(*warning.category) : -1,
          warning.location ? warning.location->packed() : 0xffffffffu,
          warning.rule_id,
          static_cast<int>(warning.source)};
}

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest value with at least p of the sample at
  // or below it.
  const double rank = std::max(1.0, std::ceil(p * sorted.size()));
  return sorted[std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1];
}

std::size_t trigger_index(std::span<const TimeSec> item_times,
                          TimeSec issued_at) {
  if (item_times.empty()) return 0;
  const auto it =
      std::lower_bound(item_times.begin(), item_times.end(), issued_at);
  return std::min<std::size_t>(it - item_times.begin(),
                               item_times.size() - 1);
}

MultisetDiff compare_multisets(std::vector<WarningKey>& reference,
                               std::vector<WarningKey>& received) {
  std::sort(reference.begin(), reference.end());
  std::sort(received.begin(), received.end());
  MultisetDiff diff;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < reference.size() || j < received.size()) {
    if (j == received.size() ||
        (i < reference.size() && reference[i] < received[j])) {
      ++diff.missing;
      ++i;
    } else if (i == reference.size() || received[j] < reference[i]) {
      ++diff.extra;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return diff;
}

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint64_t items) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({name, id, parent, now_ns(), 0, items});
  return id;
}

void Tracer::end(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

double Tracer::seconds(const char* name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size() + 1);
  for (const Span& span : spans_) {
    children[span.parent].emplace_back(span.start_ns, span.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    auto& kids = children[span.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  std::fputs("[\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"items\":%llu}%s\n",
                 s.name, s.id, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.items),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

// ---- DaemonProcess -------------------------------------------------------

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& binary,
                             std::vector<std::string> args,
                             const std::string& workdir) {
  static int spawned = 0;
  const std::string stem =
      workdir + "/dmlfpd-" + std::to_string(spawned++);
  const std::string port_file = stem + ".port";
  log_path_ = stem + ".log";
  ::unlink(port_file.c_str());

  args.insert(args.begin(), binary);
  for (const char* flag : {"--port", "0", "--port-file"}) {
    args.emplace_back(flag);
  }
  args.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary);
  }

  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (true) {
    const std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(
          std::strtoul(text.c_str(), nullptr, 10));
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("dmlfpd exited during start-up: " +
                               read_file(log_path_));
    }
    if (Clock::now() > deadline) {
      // A constructor that throws runs no destructor: reap the child here.
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw std::runtime_error("dmlfpd did not bind within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

DaemonProcess::~DaemonProcess() {
  if (pid_ <= 0) return;
  // Only reached on error paths: do not wait on a drain that may hang.
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

double DaemonProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void DaemonProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("dmlfpd exited abnormally: " +
                             read_file(log_path_));
  }
}

}  // namespace perfbench
