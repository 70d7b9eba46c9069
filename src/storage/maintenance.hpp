// Offline repository maintenance: the deep checker behind
// `dmlfp verify` (a report over the repository walk of
// storage/segment.hpp, acting on nothing) and the rewriter behind
// `dmlfp compact`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/log_writer.hpp"

namespace dml::storage {

/// Everything `verify_repository` concluded.  `ok()` means the
/// repository is fully readable and internally consistent; `issues`
/// lists every violation found (the check does not stop at the first).
struct VerifyReport {
  std::vector<std::string> issues;

  std::uint64_t segments = 0;  ///< sealed + active-with-records
  std::uint64_t records = 0;
  std::uint64_t fatal_records = 0;
  std::uint64_t bytes = 0;
  TimeSec first_time = 0;
  TimeSec last_time = 0;
  /// Torn bytes found at the active tail, including an active file too
  /// short to hold its header.  Benign (a reopen truncates them) and
  /// therefore reported separately, not as an issue.
  std::uint64_t active_torn_bytes = 0;

  bool ok() const { return issues.empty(); }
};

/// Full-scan audit of a repository directory: every fault of the walk,
/// plus stray temp files, torn sealed segments and missing, corrupt or
/// stale sidecar indexes (midplane address records included, re-derived
/// from the data).  Read-only.
VerifyReport verify_repository(const std::string& dir);

struct CompactStats {
  std::uint64_t records = 0;
  std::uint64_t segments_before = 0;
  std::uint64_t segments_after = 0;
};

/// Rewrites `src_dir` into a fresh repository at `dst_dir` (which must
/// not already hold one): torn tails are dropped, undersized sealed
/// segments are merged into full ones of `options.segment_bytes`, and
/// every index is freshly built.  The machine name and threshold carry
/// over from the source manifest.
CompactStats compact_repository(const std::string& src_dir,
                                const std::string& dst_dir,
                                const LogWriterOptions& options = {});

}  // namespace dml::storage
