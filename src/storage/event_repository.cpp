#include "storage/event_repository.hpp"

namespace dml::storage {

std::vector<bgl::Event> materialize(const EventRepository& repo,
                                    TimeSec begin, TimeSec end) {
  std::vector<bgl::Event> events;
  auto cursor = repo.scan(begin, end);
  while (cursor->next(events, kDefaultScanBatch) > 0) {
  }
  return events;
}

}  // namespace dml::storage
