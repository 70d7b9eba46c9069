#include "storage/maintenance.hpp"

#include "storage/disk_repository.hpp"
#include "storage/event_repository.hpp"
#include "storage/segment.hpp"

namespace dml::storage {

VerifyReport verify_repository(const std::string& dir) {
  const RepositoryWalk walk = walk_repository(dir, WalkDepth::kScanAll);
  VerifyReport report;
  report.issues = walk.faults;
  const auto issue = [&report](const SegmentFile& file, std::string what) {
    report.issues.push_back(file.name + ": " + std::move(what));
  };
  for (const std::string& name : walk.temp_files) {
    report.issues.push_back("stray temp file: " + name);
  }
  for (const SegmentFile& file : walk.segments) {
    const SegmentIndex& index = file.index;
    report.bytes += file.file_bytes + file.index_bytes;
    report.records += index.count;
    report.fatal_records += index.fatal_count;
    if (index.count > 0) {
      if (report.segments == 0) report.first_time = index.min_time;
      report.last_time = index.max_time;
      ++report.segments;
    }
    if (file.verdict == FileVerdict::kCorrupt) continue;  // a fault already
    if (file.active) {
      report.active_torn_bytes = file.torn_bytes;
      continue;
    }
    if (file.verdict == FileVerdict::kTorn) {
      issue(file, std::to_string(file.torn_bytes) +
                      " torn bytes in a sealed segment");
    }
    switch (file.index_verdict) {
      case IndexVerdict::kOk:
        break;
      case IndexVerdict::kMissing:
        issue(file, "sidecar index missing");
        break;
      case IndexVerdict::kCorrupt:
        issue(file, "sidecar index corrupt");
        break;
      case IndexVerdict::kStale:
        issue(file, "sidecar index disagrees with segment contents");
        break;
    }
  }
  return report;
}

CompactStats compact_repository(const std::string& src_dir,
                                const std::string& dst_dir,
                                const LogWriterOptions& options) {
  const OnDiskRepository source(src_dir);
  CompactStats stats;
  stats.segments_before = source.segment_count();

  LogWriterOptions dst_options = options;
  dst_options.threshold = source.manifest().threshold;
  LogWriter writer(dst_dir, source.manifest().machine, dst_options);
  if (!source.empty()) {
    auto cursor =
        source.scan(source.first_time(), source.last_time() + 1);
    std::vector<bgl::Event> batch;
    while (true) {
      batch.clear();
      if (cursor->next(batch, kDefaultScanBatch) == 0) break;
      for (const bgl::Event& event : batch) writer.append(event);
    }
  }
  writer.close();
  stats.records = writer.appended();
  stats.segments_after =
      writer.sealed_segments() + (writer.appended() > 0 ? 1 : 0);
  return stats;
}

}  // namespace dml::storage
