#include "storage/log_writer.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "storage/manifest.hpp"
#include "storage/paths.hpp"
#include "storage/segment.hpp"

namespace dml::storage {
namespace {

int open_for_append(const std::string& path, bool create) {
  int flags = O_WRONLY | O_APPEND | O_CLOEXEC;
  if (create) flags |= O_CREAT | O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    throw std::runtime_error("storage: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
}

}  // namespace

LogWriter::LogWriter(const std::string& dir, const std::string& machine,
                     const LogWriterOptions& options)
    : dir_(dir), machine_(machine), options_(options) {
  DML_CHECK(options_.segment_bytes >=
            kSegmentHeaderSize + kEventRecordSize);
  Manifest manifest;
  manifest.machine = machine_;
  manifest.segment_bytes = options_.segment_bytes;
  manifest.threshold = options_.threshold;
  write_manifest(dir_, manifest);
  open_active(/*first_ordinal=*/0);
}

LogWriter::LogWriter(const std::string& dir) : dir_(dir) {
  const RepositoryWalk walk = walk_repository(dir_, WalkDepth::kScanAll);
  walk.require_sound();
  machine_ = walk.manifest.machine;
  options_.segment_bytes = walk.manifest.segment_bytes;
  options_.threshold = walk.manifest.threshold;

  for (const std::string& name : walk.temp_files) {
    std::filesystem::remove(join_path(dir_, name));
    ++recovery_.temp_files_removed;
  }
  // Sealed files were fsynced before their rename, so a torn sealed
  // segment means foul play — but the scan is the source of truth, so
  // keep what is intact rather than refuse the whole repository.
  const SegmentFile* active = nullptr;
  for (const SegmentFile& file : walk.segments) {
    if (file.torn_bytes > 0) {
      const std::string path = join_path(dir_, file.name);
      if (::truncate(path.c_str(), static_cast<off_t>(file.valid_bytes)) !=
          0) {
        throw std::runtime_error("storage: cannot truncate " + path + ": " +
                                 std::strerror(errno));
      }
      recovery_.truncated_bytes += file.torn_bytes;
    }
    total_records_ += file.index.count;
    if (file.index.count > 0) last_time_ = file.index.max_time;
    if (file.active) {
      active = &file;
      continue;
    }
    if (file.index_verdict != IndexVerdict::kOk) {
      write_index(sealed_segments_, file.index);
      ++recovery_.indexes_rebuilt;
    }
    ++sealed_segments_;
  }

  // No active tail, or one too short to hold its header (a crash inside
  // open_active): start a fresh one.
  if (active == nullptr || active->valid_bytes == 0) {
    open_active(total_records_);
    return;
  }
  active_index_ = active->index;
  active_bytes_ = active->valid_bytes;
  active_fd_ = open_for_append(join_path(dir_, kActiveName),
                               /*create=*/false);
}

LogWriter::~LogWriter() {
  // Deliberately crash-like: no flush, no seal (see header).
  if (active_fd_ >= 0) ::close(active_fd_);
}

common::FailAction LogWriter::hit_failpoint(std::string_view name) {
  try {
    return common::failpoint(name);
  } catch (...) {
    failed_ = true;
    throw;
  }
}

void LogWriter::append(const bgl::Event& event) {
  if (failed_) fail("writer already failed; reopen the repository");
  if (closed_) fail("writer is closed");
  DML_CHECK(event.time >= last_time_);

  const common::FailAction action =
      hit_failpoint(common::failpoints::kStorageAppend);

  if (active_bytes_ + kEventRecordSize > options_.segment_bytes &&
      active_index_.count > 0) {
    roll();
  }

  unsigned char record[kEventRecordSize];
  encode_event(event, record);
  if (action == common::FailAction::kCorrupt) {
    // Simulated kill mid-write: half a record lands on disk, then the
    // "process" dies.  Recovery must truncate exactly these bytes.
    write_all(record, kEventRecordSize / 2);
    failed_ = true;
    throw common::FailpointError(
        std::string(common::failpoints::kStorageAppend));
  }
  write_all(record, kEventRecordSize);

  active_bytes_ += kEventRecordSize;
  ++total_records_;
  ++appended_;
  last_time_ = event.time;
  active_index_.note(event);

  if (options_.sync_every_records > 0 &&
      ++unsynced_records_ >= options_.sync_every_records) {
    sync();
  }
}

void LogWriter::roll() {
  const common::FailAction action =
      hit_failpoint(common::failpoints::kStorageRoll);

  // Seal: make the data durable, then move it into the numbered series.
  sync_fd(active_fd_, kActiveName);
  ::close(active_fd_);
  active_fd_ = -1;

  const std::string from = join_path(dir_, kActiveName);
  const std::string to = join_path(dir_, segment_name(sealed_segments_));
  if (::rename(from.c_str(), to.c_str()) != 0) {
    fail("cannot seal " + to + ": " + std::strerror(errno));
  }
  sync_dir();

  if (action == common::FailAction::kCorrupt) {
    // Simulated kill between sealing the segment and writing its index;
    // recovery must rebuild the index by scanning the segment.
    failed_ = true;
    throw common::FailpointError(
        std::string(common::failpoints::kStorageRoll));
  }

  write_index(sealed_segments_, active_index_);
  ++sealed_segments_;
  open_active(total_records_);
}

void LogWriter::sync() {
  if (failed_) fail("writer already failed; reopen the repository");
  hit_failpoint(common::failpoints::kStorageSync);
  sync_fd(active_fd_, kActiveName);
  unsynced_records_ = 0;
}

void LogWriter::close() {
  if (closed_) return;
  sync();

  // Post-write health check: read the active tail back and make every
  // record justify its CRC.  An unsynced index or torn segment must not
  // be reported as a successful ingest.
  const std::string active_path = join_path(dir_, kActiveName);
  SegmentScan scan;
  {
    const MappedFile map = MappedFile::open(active_path);
    scan = scan_segment(map.data(), map.size());
  }
  if (scan.verdict() != FileVerdict::kIntact ||
      scan.valid_records != active_index_.count) {
    fail("read-back validation of " + active_path + " failed (" +
         std::to_string(scan.valid_records) + "/" +
         std::to_string(active_index_.count) + " records intact, " +
         std::to_string(scan.torn_bytes) + " torn bytes)");
  }

  ::close(active_fd_);
  active_fd_ = -1;
  closed_ = true;
}

void LogWriter::open_active(std::uint64_t first_ordinal) {
  const std::string path = join_path(dir_, kActiveName);
  active_fd_ = open_for_append(path, /*create=*/true);
  unsigned char header[kSegmentHeaderSize];
  SegmentHeader h;
  h.first_ordinal = first_ordinal;
  encode_segment_header(h, header);
  write_all(header, kSegmentHeaderSize);
  active_bytes_ = kSegmentHeaderSize;
  active_index_ = SegmentIndex{};
  active_index_.first_ordinal = first_ordinal;
}

void LogWriter::write_index(std::uint64_t segment_number,
                            const SegmentIndex& index) {
  const std::vector<unsigned char> bytes = encode_index(index);
  const std::string path = join_path(dir_, index_name(segment_number));
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    fail("cannot create " + tmp + ": " + std::strerror(errno));
  }
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      fail("cannot write " + tmp + ": " + std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
  sync_fd(fd, tmp);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename " + tmp + ": " + std::strerror(errno));
  }
  sync_dir();
}

void LogWriter::write_all(const unsigned char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(active_fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write to active.log failed: " + std::string(std::strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
}

void LogWriter::sync_fd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    fail("fsync " + what + " failed: " + std::strerror(errno));
  }
}

void LogWriter::sync_dir() {
  const int fd = ::open(dir_.c_str(), O_DIRECTORY | O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail("cannot open directory " + dir_ + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    fail("fsync directory " + dir_ + " failed: " + std::strerror(err));
  }
}

void LogWriter::fail(const std::string& what) {
  failed_ = true;
  throw std::runtime_error("storage: " + what);
}

void CanonicalAppender::append(const bgl::Event& event) {
  if (!pending_.empty() && event.time != pending_.back().time) flush();
  pending_.push_back(event);
}

void CanonicalAppender::flush() {
  if (pending_.empty()) return;
  std::stable_sort(pending_.begin(), pending_.end(), bgl::EventTimeOrder{});
  for (const bgl::Event& event : pending_) writer_.append(event);
  pending_.clear();
}

}  // namespace dml::storage
