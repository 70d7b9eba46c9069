#include "storage/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "storage/paths.hpp"

namespace dml::storage {
namespace {

namespace fs = std::filesystem;

/// Parses "seg-NNNNNN.log" → NNNNNN; nullopt for anything else.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  // Name layout: "seg-" + >=6 digits + ".log".
  if (name.size() < 4 + 6 + 4) return std::nullopt;
  if (!name.starts_with("seg-") || !name.ends_with(".log")) {
    return std::nullopt;
  }
  const char* first = name.data() + 4;
  const char* last = name.data() + name.size() - 4;
  std::uint64_t number = 0;
  const auto [ptr, ec] = std::from_chars(first, last, number);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return number;
}

/// Judges `file` by reading all of it.  `expected_ordinal` is where a
/// file too short for a header starts: it holds no records.
void scan_file(const std::string& dir, std::uint64_t expected_ordinal,
               SegmentFile& file) {
  const MappedFile map = MappedFile::open(join_path(dir, file.name));
  const SegmentScan scan = scan_segment(map.data(), map.size());
  file.file_bytes = map.size();
  file.verdict = scan.verdict();
  file.valid_bytes = scan.valid_bytes;
  file.torn_bytes = scan.torn_bytes;
  file.index = scan.index;
  if (!scan.header_ok) file.index.first_ordinal = expected_ordinal;
}

}  // namespace

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<unsigned char*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("storage: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("storage: cannot stat " + path + ": " +
                             std::strerror(err));
  }
  MappedFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    void* map = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("storage: cannot mmap " + path + ": " +
                               std::strerror(err));
    }
    file.data_ = static_cast<const unsigned char*>(map);
  }
  ::close(fd);
  return file;
}

SegmentScan scan_segment(const unsigned char* data, std::size_t size) {
  SegmentScan scan;
  if (size < kSegmentHeaderSize ||
      !decode_segment_header(data, &scan.header)) {
    scan.torn_bytes = size;
    return scan;
  }
  scan.header_ok = true;
  scan.valid_bytes = kSegmentHeaderSize;
  scan.index.first_ordinal = scan.header.first_ordinal;

  const unsigned char* p = data + kSegmentHeaderSize;
  std::size_t remaining = size - kSegmentHeaderSize;
  TimeSec last_time = 0;
  while (remaining >= kEventRecordSize) {
    bgl::Event event;
    if (!decode_event(p, &event)) break;
    if (scan.valid_records > 0 && event.time < last_time) break;
    last_time = event.time;
    scan.index.note(event);
    ++scan.valid_records;
    scan.valid_bytes += kEventRecordSize;
    p += kEventRecordSize;
    remaining -= kEventRecordSize;
  }
  scan.torn_bytes = size - scan.valid_bytes;
  return scan;
}

std::uint64_t lower_bound_time(const unsigned char* records,
                               std::uint64_t count, TimeSec t) {
  std::uint64_t lo = 0;
  std::uint64_t hi = count;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (decode_event_time(records + mid * kEventRecordSize) < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void RepositoryWalk::require_sound() const {
  if (!faults.empty()) {
    throw std::runtime_error("storage: cannot open repository " + dir +
                             ": " + faults.front());
  }
}

RepositoryWalk walk_repository(const std::string& dir, WalkDepth depth) {
  RepositoryWalk walk;
  walk.dir = dir;
  std::string error;
  auto manifest = read_manifest(dir, &error);
  if (!manifest) {
    walk.faults.push_back("manifest: " + error);
    return walk;  // nothing else is interpretable without it
  }
  walk.manifest = std::move(*manifest);

  // The one directory listing: every file name with its size.
  std::unordered_map<std::string, std::uint64_t> sizes;
  std::vector<std::uint64_t> sealed;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    std::error_code ec;
    const std::uint64_t size = entry.file_size(ec);
    if (name.ends_with(".tmp")) walk.temp_files.push_back(name);
    if (const auto number = parse_segment_name(name)) {
      sealed.push_back(*number);
    }
    sizes.emplace(std::move(name), ec ? 0 : size);
  }
  std::sort(walk.temp_files.begin(), walk.temp_files.end());
  std::sort(sealed.begin(), sealed.end());
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    if (sealed[i] != i) {
      walk.faults.push_back("sealed segments not contiguous: missing seg " +
                            std::to_string(i));
      return walk;
    }
  }

  // Continuity across files: ordinals and times pick up where the
  // previous file's intact records end.
  std::uint64_t running_total = 0;
  TimeSec prev_last = 0;
  bool any_records = false;
  const auto add = [&](SegmentFile file) {
    const SegmentIndex& index = file.index;
    if (file.verdict == FileVerdict::kCorrupt) {
      walk.faults.push_back(file.name + ": corrupt header");
    } else if (index.first_ordinal != running_total) {
      walk.faults.push_back(file.name + ": first ordinal " +
                            std::to_string(index.first_ordinal) +
                            " != expected " + std::to_string(running_total));
    } else if (index.count > 0 && any_records && index.min_time < prev_last) {
      walk.faults.push_back(file.name + ": starts at " +
                            std::to_string(index.min_time) +
                            ", before the previous segment's last record at " +
                            std::to_string(prev_last));
    }
    if (index.count > 0) {
      any_records = true;
      prev_last = index.max_time;
    }
    running_total += index.count;
    walk.segments.push_back(std::move(file));
  };

  for (std::uint64_t number = 0; number < sealed.size(); ++number) {
    SegmentFile file;
    file.name = segment_name(number);
    file.file_bytes = sizes[file.name];
    SegmentIndex stored;
    bool decoded = false;
    const auto idx = sizes.find(index_name(number));
    if (idx == sizes.end()) {
      file.index_verdict = IndexVerdict::kMissing;
    } else {
      file.index_bytes = idx->second;
      const MappedFile map = MappedFile::open(join_path(dir, idx->first));
      decoded = decode_index(map.data(), map.size(), &stored);
      if (!decoded) file.index_verdict = IndexVerdict::kCorrupt;
    }
    const bool fits =
        file.file_bytes >= kSegmentHeaderSize &&
        stored.count <=
            (file.file_bytes - kSegmentHeaderSize) / kEventRecordSize;
    if (depth == WalkDepth::kTrustIndexes && decoded &&
        stored.first_ordinal == running_total && fits) {
      file.index = stored;
      file.valid_bytes = kSegmentHeaderSize + stored.count * kEventRecordSize;
      file.torn_bytes = file.file_bytes - file.valid_bytes;
      file.verdict =
          file.torn_bytes > 0 ? FileVerdict::kTorn : FileVerdict::kIntact;
    } else {
      scan_file(dir, running_total, file);
      if (decoded && !(stored == file.index)) {
        file.index_verdict = IndexVerdict::kStale;
      }
    }
    add(std::move(file));
  }
  if (sizes.contains(kActiveName)) {
    SegmentFile file;
    file.name = kActiveName;
    file.active = true;
    scan_file(dir, running_total, file);
    add(std::move(file));
  }
  return walk;
}

}  // namespace dml::storage
