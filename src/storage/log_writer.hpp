// Crash-safe append side of the segmented event log.
//
// Durability discipline (DESIGN.md §11):
//  - appends go to `active.log` with plain sequential writes; a record
//    is "fully written" once all 24 bytes hit the file;
//  - a segment roll fsyncs the active file, renames it into the sealed
//    `seg-NNNNNN.log` series, fsyncs the directory, then writes the
//    sidecar index through temp-file + fsync + rename.  A sealed
//    segment is therefore durable before it becomes visible under its
//    sealed name, and a missing/torn index is always rebuildable from
//    its segment (a crash between the two renames self-heals on open);
//  - reopen recovers by acting on the repository walk
//    (storage/segment.hpp): it refuses a repository with any fault
//    (gap, corrupt header, ordinal or time discontinuity) without
//    touching it; otherwise stray temp files are removed, every torn
//    file is truncated to its last intact record, sealed segments whose
//    index is missing, corrupt or stale get it rewritten, and an active
//    tail too short to hold its header is started afresh — the BigWorld
//    message_logger recovery contract.
//
// The `storage.append` / `storage.roll` / `storage.sync` failpoints are
// compiled into the corresponding steps; the chaos tier kills writers
// through them and asserts this recovery contract over 50 seeds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgl/record.hpp"
#include "common/failpoint.hpp"
#include "storage/format.hpp"

namespace dml::storage {

struct LogWriterOptions {
  /// Target byte size of one segment, header included.  Appends roll to
  /// a new segment when the next record would not fit.
  std::size_t segment_bytes = 4u << 20;
  /// fsync the active segment every N appended records; 0 = only on
  /// roll and close (crash may then lose the unsynced active tail, but
  /// never a sealed segment).
  std::size_t sync_every_records = 0;
  /// Preprocess threshold recorded in the manifest (create only).
  std::int64_t threshold = 300;
};

/// What reopen had to repair.
struct RecoveryInfo {
  /// Torn bytes truncated off segment tails (the active tail, or a
  /// sealed segment's).
  std::uint64_t truncated_bytes = 0;
  /// Sealed segments whose sidecar index was missing, corrupt or stale
  /// and was rewritten from the segment's scan.
  std::size_t indexes_rebuilt = 0;
  /// Leftover temp files removed.
  std::size_t temp_files_removed = 0;
};

class LogWriter {
 public:
  /// Creates a fresh repository in `dir` (directory is created if
  /// absent; must not already contain a repository).
  LogWriter(const std::string& dir, const std::string& machine,
            const LogWriterOptions& options);

  /// Opens an existing repository for append, recovering as described
  /// above; throws std::runtime_error on a faulty repository.  Manifest
  /// options (segment size) are taken from the repository, not
  /// re-specified.
  explicit LogWriter(const std::string& dir);

  /// Destruction without close() is deliberately crash-like: nothing is
  /// flushed or sealed beyond what append()/sync() already wrote, so
  /// tests can abandon a writer mid-stream to simulate a kill.
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Appends one event.  Events must arrive in non-decreasing canonical
  /// order (bgl::EventTimeOrder; enforced on the time axis).  Throws on
  /// I/O failure or a triggered storage.append/storage.roll failpoint;
  /// after a throw the writer is unusable (sticky failed state) — the
  /// crash-recovery path is to reopen the directory.
  void append(const bgl::Event& event);

  /// fsyncs the active segment (storage.sync failpoint inside).
  void sync();

  /// sync() + read-back validation of the active tail: re-scans the
  /// active segment and throws if any record fails its CRC — the
  /// post-write health check `dmlfp ingest` gates success on.  The
  /// active segment stays active (appendable by a later open).
  void close();

  bool closed() const { return closed_; }

  /// Events appended over the repository's lifetime (all segments).
  std::uint64_t total_records() const { return total_records_; }
  /// Events this writer appended since construction.
  std::uint64_t appended() const { return appended_; }
  std::uint64_t sealed_segments() const { return sealed_segments_; }
  TimeSec last_time() const { return last_time_; }
  const std::string& machine() const { return machine_; }
  const std::string& dir() const { return dir_; }
  const LogWriterOptions& options() const { return options_; }

  /// What the opening constructor repaired (empty for a fresh create).
  const RecoveryInfo& recovery() const { return recovery_; }

 private:
  /// Evaluates a failpoint, making a kThrow trigger stick as failure.
  common::FailAction hit_failpoint(std::string_view name);
  /// Creates a fresh active.log whose records start at `first_ordinal`.
  void open_active(std::uint64_t first_ordinal);
  void roll();
  void write_index(std::uint64_t segment_number, const SegmentIndex& index);
  void write_all(const unsigned char* data, std::size_t size);
  void sync_fd(int fd, const std::string& what);
  void sync_dir();
  [[noreturn]] void fail(const std::string& what);

  std::string dir_;
  std::string machine_;
  LogWriterOptions options_;
  RecoveryInfo recovery_;

  int active_fd_ = -1;
  std::uint64_t sealed_segments_ = 0;
  std::uint64_t active_bytes_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t unsynced_records_ = 0;
  TimeSec last_time_ = 0;
  SegmentIndex active_index_;
  bool failed_ = false;
  bool closed_ = false;
};

/// Buffers same-timestamp events and flushes them to the writer in
/// canonical order (bgl::EventTimeOrder), so an ingest stream that is
/// only time-ordered lands on disk in exactly the order an in-memory
/// EventStore would present it — the invariant behind the byte-identical
/// warning-stream guarantee of `dmlfp run --repo`.
class CanonicalAppender {
 public:
  explicit CanonicalAppender(LogWriter& writer) : writer_(writer) {}

  void append(const bgl::Event& event);
  /// Flushes the pending timestamp group.  Call before close().
  void flush();

 private:
  LogWriter& writer_;
  std::vector<bgl::Event> pending_;
};

}  // namespace dml::storage
