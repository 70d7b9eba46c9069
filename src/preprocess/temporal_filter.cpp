#include "preprocess/temporal_filter.hpp"

namespace dml::preprocess {
namespace {

std::uint64_t key_of(const bgl::RasRecord& record, CategoryId category) {
  const std::uint64_t loc = record.location.packed();
  const std::uint64_t job = record.job_id * 0x9E37ULL;
  return (loc << 32) ^ (job << 16) ^ category;
}

}  // namespace

bool TemporalFilter::admit(const bgl::RasRecord& record,
                           CategoryId category) {
  if (threshold_ <= 0) {
    ++passed_;
    return true;
  }
  const TimeSec t = record.event_time;
  window_.observe(t);
  const auto [last, inserted] =
      last_seen_.try_emplace(key_of(record, category), t);
  if (!inserted) {
    const bool extends = window_.extends(*last, t);
    *last = t;  // gap-based: the tuple window slides forward
    if (extends) {
      ++merged_;
      return false;
    }
  } else if (window_.due(last_seen_.size())) {
    last_seen_.erase_if(
        [&](std::uint64_t, TimeSec seen) { return window_.stale(seen); });
    window_.swept(last_seen_.size());
  }
  ++passed_;
  return true;
}

}  // namespace dml::preprocess
