#include "storage/disk_repository.hpp"

#include <chrono>
#include <stdexcept>

#include "storage/paths.hpp"

namespace dml::storage {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

/// Streams [begin, end) across segment boundaries.  Holds only indices
/// into the owning repository; the mmap cache there keeps record
/// pointers valid for the repository's lifetime.
class DiskCursor : public EventCursor {
 public:
  DiskCursor(const OnDiskRepository& repo, TimeSec begin, TimeSec end)
      : repo_(repo), end_(end) {
    // Outer seek: first segment that can hold a record with time >=
    // begin (segment max times are non-decreasing across the log).
    const auto& segments = repo_.segments_;
    while (segment_ < segments.size() &&
           (segments[segment_].index.count == 0 ||
            segments[segment_].index.max_time < begin)) {
      ++segment_;
    }
    if (segment_ >= segments.size()) return;
    // Inner seek: binary search the fixed-stride records.
    const unsigned char* base = repo_.records_of(segment_);
    record_ = lower_bound_time(base, segments[segment_].index.count, begin);
  }

  std::size_t next(std::vector<bgl::Event>& out, std::size_t max) override {
    const auto start = Clock::now();
    std::size_t produced = 0;
    std::uint64_t records_decoded = 0;
    const auto& segments = repo_.segments_;
    while (produced < max && segment_ < segments.size()) {
      const SegmentIndex& index = segments[segment_].index;
      if (index.count == 0 || record_ >= index.count) {
        ++segment_;
        record_ = 0;
        continue;
      }
      if (index.min_time >= end_) break;  // everything later is >= end
      const unsigned char* base = repo_.records_of(segment_);
      while (produced < max && record_ < index.count) {
        bgl::Event event;
        if (!decode_event(base + record_ * kEventRecordSize, &event)) {
          throw std::runtime_error(
              "storage: CRC failure in " + segments[segment_].path +
              " record " + std::to_string(record_) +
              " (corruption after open)");
        }
        ++records_decoded;
        if (event.time >= end_) {
          segment_ = segments.size();  // exhausted
          break;
        }
        out.push_back(event);
        ++produced;
        ++record_;
      }
    }
    IoStats delta;
    delta.bytes_read = records_decoded * kEventRecordSize;
    delta.read_seconds = seconds_since(start);
    repo_.add_io(delta);
    return produced;
  }

 private:
  const OnDiskRepository& repo_;
  TimeSec end_;
  std::size_t segment_ = 0;
  std::uint64_t record_ = 0;
};

OnDiskRepository::OnDiskRepository(const std::string& dir) : dir_(dir) {
  const auto start = Clock::now();
  const RepositoryWalk walk =
      walk_repository(dir_, WalkDepth::kTrustIndexes);
  walk.require_sound();
  manifest_ = walk.manifest;
  for (const SegmentFile& file : walk.segments) {
    open_info_.torn_bytes_ignored += file.torn_bytes;
    // The walk read the active tail and every sealed body whose index it
    // rebuilt in memory (the read side never writes).
    const bool rebuilt =
        !file.active && file.index_verdict != IndexVerdict::kOk;
    if (rebuilt) ++open_info_.indexes_rebuilt;
    if (file.active || rebuilt) {
      io_unlocked_.segments_opened += 1;
      io_unlocked_.bytes_read += file.valid_bytes;
    }
    const SegmentIndex& index = file.index;
    if (index.count > 0) {
      // The walk refuses a segment that starts before its predecessor
      // ends, so the last one holds the latest record.
      if (total_records_ == 0) first_time_ = index.min_time;
      last_time_ = index.max_time;
      total_records_ += index.count;
    } else if (file.active) {
      continue;
    }
    segments_.push_back(Segment{join_path(dir_, file.name), index, {}});
  }
  io_unlocked_.map_seconds = seconds_since(start);
}

OnDiskRepository::~OnDiskRepository() = default;

const unsigned char* OnDiskRepository::records_of(std::size_t i) const {
  const Segment& segment = segments_[i];
  if (segment.index.count == 0) return nullptr;
  common::MutexLock lock(mutex_);
  if (!segment.map.has_value()) {
    const auto start = Clock::now();
    MappedFile map = MappedFile::open(segment.path);
    const std::size_t need =
        kSegmentHeaderSize + segment.index.count * kEventRecordSize;
    if (map.size() < need) {
      throw std::runtime_error("storage: " + segment.path +
                               " shrank under an open repository");
    }
    segment.map = std::move(map);
    io_.segments_opened += 1;
    io_.map_seconds += seconds_since(start);
  }
  return segment.map->data() + kSegmentHeaderSize;
}

std::unique_ptr<EventCursor> OnDiskRepository::scan(TimeSec begin,
                                                    TimeSec end) const {
  return std::make_unique<DiskCursor>(*this, begin, end);
}

std::size_t OnDiskRepository::fatal_count_between(TimeSec begin,
                                                  TimeSec end) const {
  if (begin >= end) return 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const SegmentIndex& index = segments_[i].index;
    if (index.count == 0 || index.max_time < begin) continue;
    if (index.min_time >= end) break;
    if (index.min_time >= begin && index.max_time < end) {
      count += index.fatal_count;  // fully covered: the index suffices
      continue;
    }
    // Boundary segment: narrow with two in-segment binary searches,
    // then decode just the overlap.
    const auto start = Clock::now();
    const unsigned char* base = records_of(i);
    const std::uint64_t lo = lower_bound_time(base, index.count, begin);
    const std::uint64_t hi = lower_bound_time(base, index.count, end);
    for (std::uint64_t r = lo; r < hi; ++r) {
      bgl::Event event;
      if (!decode_event(base + r * kEventRecordSize, &event)) {
        throw std::runtime_error("storage: CRC failure in " +
                                 segments_[i].path + " record " +
                                 std::to_string(r));
      }
      if (event.fatal) ++count;
    }
    IoStats delta;
    delta.bytes_read = (hi - lo) * kEventRecordSize;
    delta.read_seconds = seconds_since(start);
    add_io(delta);
  }
  return count;
}

IoStats OnDiskRepository::io_stats() const {
  common::MutexLock lock(mutex_);
  IoStats total = io_unlocked_;
  total += io_;
  return total;
}

void OnDiskRepository::add_io(const IoStats& delta) const {
  common::MutexLock lock(mutex_);
  io_ += delta;
}

}  // namespace dml::storage
