// Read side of segment files: an RAII read-only memory mapping, the
// validating scanner that turns raw bytes into "N intact records, M torn
// trailing bytes", and the one repository walk built on it.  The walk
// lists a repository directory once and gives every segment file one
// verdict; writer reopen, repository open and verify only act on it
// (DESIGN.md §11.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/format.hpp"
#include "storage/manifest.hpp"

namespace dml::storage {

/// Read-only mmap of a whole file.  Move-only; unmapped on destruction.
/// A zero-length file maps to {nullptr, 0}.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only; throws std::runtime_error on any failure.
  static MappedFile open(const std::string& path);

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr || size_ == 0; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// What one segment file holds, judged from its bytes.
enum class FileVerdict {
  kIntact,   ///< a valid header, then intact records only
  kTorn,     ///< shorter than a header, or intact records then a torn suffix
  kCorrupt,  ///< a full-length header that fails its check
};

/// Result of validating a segment image front to back.  `valid_bytes`
/// (header + intact records) is the truncation point that recovers the
/// file; anything beyond it is the torn tail.
struct SegmentScan {
  bool header_ok = false;
  SegmentHeader header;
  std::uint64_t valid_records = 0;
  /// Bytes from offset 0 through the last intact record.
  std::uint64_t valid_bytes = 0;
  /// Trailing bytes past the last intact record (0 for a clean file).
  std::uint64_t torn_bytes = 0;
  /// Summary rebuilt from the intact records (first_ordinal filled from
  /// the header).
  SegmentIndex index;

  FileVerdict verdict() const {
    if (!header_ok) {
      return torn_bytes < kSegmentHeaderSize ? FileVerdict::kTorn
                                             : FileVerdict::kCorrupt;
    }
    return torn_bytes > 0 ? FileVerdict::kTorn : FileVerdict::kIntact;
  }
};

/// Walks a segment image: header, then per-record CRC + non-decreasing
/// time validation, stopping at the first record that fails either.  A
/// failed (or short) header yields header_ok == false with the whole
/// file counted as torn.
SegmentScan scan_segment(const unsigned char* data, std::size_t size);

/// First record index in [records, records + count) with time >= t —
/// the in-segment half of seek-by-time.  Records must be intact (their
/// times are read without CRC checks).
std::uint64_t lower_bound_time(const unsigned char* records,
                               std::uint64_t count, TimeSec t);

/// What a sealed segment's sidecar index was found to be.
enum class IndexVerdict {
  kOk,       ///< decodes and agrees with its segment
  kMissing,
  kCorrupt,  ///< does not decode
  kStale,    ///< decodes but disagrees with its segment
};

/// One segment file as the repository walk judged it.
struct SegmentFile {
  std::string name;  ///< "seg-NNNNNN.log", or kActiveName
  bool active = false;
  std::uint64_t file_bytes = 0;
  FileVerdict verdict = FileVerdict::kIntact;
  /// Header plus intact records: the truncation point that recovers the
  /// file (0 for a file shorter than a header).
  std::uint64_t valid_bytes = 0;
  std::uint64_t torn_bytes = 0;
  /// Summary of the intact records.  A file too short for a header
  /// holds none and starts where its predecessor ended.
  SegmentIndex index;
  /// Sealed segments only (the active tail has no index).
  IndexVerdict index_verdict = IndexVerdict::kOk;
  std::uint64_t index_bytes = 0;
};

enum class WalkDepth {
  /// Read every segment body (writer reopen, verify).
  kScanAll,
  /// Judge a sealed segment by its sidecar index and its file size when
  /// the index decodes, continues the ordinal sequence and fits in the
  /// file; read every other body (the read side, whose open maps no
  /// sealed segment it can trust).  So a sealed body is read exactly
  /// when its index_verdict is not kOk, unless the walk finds a fault.
  kTrustIndexes,
};

/// Everything a walk over a repository directory found.
struct RepositoryWalk {
  std::string dir;
  Manifest manifest;
  /// Leftover "*.tmp" files of interrupted index or manifest writes.
  std::vector<std::string> temp_files;
  /// seg-000000.log, seg-000001.log, ... in order, then active.log when
  /// it exists.
  std::vector<SegmentFile> segments;
  /// What makes the repository unusable as it stands: a missing or
  /// malformed manifest, a gap in the seg-N numbering (the walk stops
  /// there), a corrupt header, a first ordinal that does not continue
  /// the log, or a segment starting before its predecessor's last
  /// record.
  std::vector<std::string> faults;

  /// Throws std::runtime_error naming the first fault.  The open paths
  /// call it before they act, so a faulty repository is left untouched.
  void require_sound() const;
};

/// Reads the manifest, lists the directory once, reads every sidecar
/// index and judges every segment file (sealed and active).  Read-only.
RepositoryWalk walk_repository(const std::string& dir, WalkDepth depth);

}  // namespace dml::storage
