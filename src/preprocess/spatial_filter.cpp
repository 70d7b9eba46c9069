#include "preprocess/spatial_filter.hpp"

#include <functional>
#include <string>

namespace dml::preprocess {

bool SpatialFilter::admit(const bgl::RasRecord& record) {
  if (threshold_ <= 0) {
    ++passed_;
    return true;
  }
  const TimeSec t = record.event_time;
  window_.observe(t);
  const Key key{std::hash<std::string>{}(record.entry_data), record.job_id};
  auto [it, inserted] = last_seen_.try_emplace(key, t);
  if (!inserted) {
    const bool extends = window_.extends(it->second, t);
    it->second = t;
    if (extends) {
      ++merged_;
      return false;
    }
  } else if (window_.due(last_seen_.size())) {
    std::erase_if(last_seen_, [&](const auto& entry) {
      return window_.stale(entry.second);
    });
    window_.swept(last_seen_.size());
  }
  ++passed_;
  return true;
}

}  // namespace dml::preprocess
