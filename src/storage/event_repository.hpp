// EventRepository — the pluggable event data plane (paper §2.1's DB2
// central repository, abstracted).  Everything downstream of
// preprocessing (learners, driver, engines, benches) consumes events
// through this interface, so the same pipeline runs off an in-memory
// logio::EventStore or an mmap-backed on-disk log
// (storage::OnDiskRepository) without caring which.
//
// The contract is deliberately narrow: time bounds, counts, and
// cursor-based range scans.  A cursor streams events in canonical order
// (bgl::EventTimeOrder: time, then category, then packed location) in
// caller-sized batches, so a multi-month archive is never materialised
// wholesale.  Implementations with random access (the in-memory store)
// are free to make scans cheap views; disk implementations seek by time
// in O(log n) via their segment indexes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgl/record.hpp"

namespace dml::storage {

/// Streaming read of one time range.  Not thread-safe; one cursor per
/// reader.  Events arrive in canonical order, each exactly once.
class EventCursor {
 public:
  virtual ~EventCursor() = default;

  /// Appends up to `max` events to `out` (which is NOT cleared — the
  /// caller owns the buffer discipline) and returns how many were
  /// appended; 0 means the range is exhausted.
  virtual std::size_t next(std::vector<bgl::Event>& out, std::size_t max) = 0;
};

/// Cumulative read-side I/O accounting (zero for in-memory stores).
/// `map_seconds` is wall time spent mapping segment files into memory,
/// `read_seconds` wall time decoding records out of the mappings — the
/// "mmap vs read" split of the --profile log-I/O stage.
struct IoStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t segments_opened = 0;
  double map_seconds = 0.0;
  double read_seconds = 0.0;

  IoStats& operator+=(const IoStats& other) {
    bytes_read += other.bytes_read;
    segments_opened += other.segments_opened;
    map_seconds += other.map_seconds;
    read_seconds += other.read_seconds;
    return *this;
  }
  friend IoStats operator-(IoStats a, const IoStats& b) {
    a.bytes_read -= b.bytes_read;
    a.segments_opened -= b.segments_opened;
    a.map_seconds -= b.map_seconds;
    a.read_seconds -= b.read_seconds;
    return a;
  }
};

class EventRepository {
 public:
  virtual ~EventRepository() = default;

  /// Total events held.
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Timestamp bounds; both 0 when empty.
  virtual TimeSec first_time() const = 0;
  virtual TimeSec last_time() const = 0;

  /// Cursor over events with time in [begin, end).
  virtual std::unique_ptr<EventCursor> scan(TimeSec begin, TimeSec end)
      const = 0;

  /// Number of fatal events in [begin, end).
  virtual std::size_t fatal_count_between(TimeSec begin, TimeSec end)
      const = 0;

  /// Read-side I/O accounting since open (all zeros for in-memory
  /// implementations — the default).
  virtual IoStats io_stats() const { return {}; }
};

/// Collects [begin, end) into a vector (for bounded ranges only — an
/// interval's test span, a warm-up window — never the whole archive).
std::vector<bgl::Event> materialize(const EventRepository& repo,
                                    TimeSec begin, TimeSec end);

/// Default batch size for cursor loops; large enough to amortise the
/// virtual call, small enough to stay cache-resident.
inline constexpr std::size_t kDefaultScanBatch = 4096;

}  // namespace dml::storage
