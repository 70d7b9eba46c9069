// Read side of the segmented on-disk event log: an EventRepository over
// a repository directory written by LogWriter.
//
// Opening acts on the repository walk (storage/segment.hpp) at
// WalkDepth::kTrustIndexes: a faulty repository is refused, a sealed
// segment whose index cannot be trusted is scanned and its summary
// rebuilt in memory (the read side never writes), and torn suffixes
// are ignored the same way writer recovery would truncate them.  Sealed
// bodies with a trusted index are NOT touched at open: segments are
// mmap'd lazily, one at a time, the first time a scan or count enters
// them, and stay cached for the repository's lifetime.
//
// Seek-by-time is two-level: binary search over the per-segment time
// ranges (indexes, in memory), then binary search over the fixed-stride
// records of the mmap'd boundary segment — O(log segments + log
// records/segment) to position a cursor anywhere in a multi-month log.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "storage/event_repository.hpp"
#include "storage/manifest.hpp"
#include "storage/segment.hpp"

namespace dml::storage {

/// What open() observed (read-only analogue of RecoveryInfo).
struct OpenInfo {
  /// Torn bytes ignored at segment tails (0 for a clean log).
  std::uint64_t torn_bytes_ignored = 0;
  /// Sidecar indexes that were missing, corrupt or stale and rebuilt in
  /// memory.
  std::size_t indexes_rebuilt = 0;
};

class OnDiskRepository : public EventRepository {
 public:
  /// Opens `dir`; throws std::runtime_error on any fault the walk
  /// finds (missing manifest, gap, corrupt header, ordinal or time
  /// discontinuity) or an unreadable file.
  explicit OnDiskRepository(const std::string& dir);
  ~OnDiskRepository() override;

  OnDiskRepository(const OnDiskRepository&) = delete;
  OnDiskRepository& operator=(const OnDiskRepository&) = delete;

  // EventRepository:
  std::size_t size() const override { return total_records_; }
  TimeSec first_time() const override { return first_time_; }
  TimeSec last_time() const override { return last_time_; }
  std::unique_ptr<EventCursor> scan(TimeSec begin, TimeSec end)
      const override;
  std::size_t fatal_count_between(TimeSec begin, TimeSec end) const override;
  IoStats io_stats() const override;

  const std::string& dir() const { return dir_; }
  const Manifest& manifest() const { return manifest_; }
  const OpenInfo& open_info() const { return open_info_; }
  /// Sealed segments plus the active tail when it has records.
  std::size_t segment_count() const { return segments_.size(); }

 private:
  friend class DiskCursor;

  struct Segment {
    std::string path;
    SegmentIndex index;
    /// Lazily mapped body; nullopt until first touched.  Only the
    /// intact prefix (`index.count` records) is ever read.
    mutable std::optional<MappedFile> map;
  };

  /// Maps segment `i` if needed and returns its record base pointer
  /// (nullptr for an empty segment).  Thread-safe.
  const unsigned char* records_of(std::size_t i) const;

  void add_io(const IoStats& delta) const;

  std::string dir_;
  Manifest manifest_;
  OpenInfo open_info_;
  std::vector<Segment> segments_;
  std::uint64_t total_records_ = 0;
  TimeSec first_time_ = 0;
  TimeSec last_time_ = 0;

  /// I/O spent inside the constructor (index rebuilds, tail scan);
  /// written before any other thread can see the object, so unguarded.
  IoStats io_unlocked_;

  mutable common::Mutex mutex_;
  mutable IoStats io_ DML_GUARDED_BY(mutex_);
};

}  // namespace dml::storage
