// The hierarchical event taxonomy of the Blue Gene/L RAS logs (paper
// §3.1, Table 3): ten high-level facilities, refined by Severity and
// Entry Data into 219 low-level categories — 69 fatal and 150 non-fatal.
//
// A handful of categories carry FATAL/FAILURE severity in the raw log but
// are *not* true failures ("fake" fatal events per Oliner & Stearley; the
// paper removed them after consulting administrators).  They are flagged
// `nominally_fatal` here and counted among the 150 non-fatal categories.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgl/location.hpp"
#include "common/severity.hpp"
#include "common/types.hpp"

namespace dml::bgl {

enum class Facility : std::uint8_t {
  kApp = 0,
  kBglMaster = 1,
  kCmcs = 2,
  kDiscovery = 3,
  kHardware = 4,
  kKernel = 5,
  kLinkCard = 6,
  kMmcs = 7,
  kMonitor = 8,
  kServNet = 9,
};

inline constexpr int kNumFacilities = 10;

std::string_view to_string(Facility f);
std::optional<Facility> facility_from_string(std::string_view text);

/// The mechanism through which an event is recorded (Table 1, EVENT TYPE).
enum class EventType : std::uint8_t {
  kRas = 0,      // hardware/kernel RAS path via the service card
  kMmcs = 1,     // control-system originated
  kAppOut = 2,   // application stdout/stderr capture
};

std::string_view to_string(EventType t);
std::optional<EventType> event_type_from_string(std::string_view text);

/// One low-level event category.
struct EventCategory {
  CategoryId id = kInvalidCategory;
  Facility facility = Facility::kKernel;
  Severity severity = Severity::kInfo;
  EventType event_type = EventType::kRas;
  /// True failure: the prediction target set (69 categories).
  bool fatal = false;
  /// Severity says FATAL/FAILURE but administrators demoted it.
  bool nominally_fatal = false;
  /// Stable machine-readable name, e.g. "kernel.torus.uncorrectable-error".
  std::string name;
  /// Distinctive substring the categorizer matches inside ENTRY DATA.
  std::string pattern;
  /// Where events of this category originate.
  LocationKind origin = LocationKind::kComputeChip;
};

/// Immutable dictionary of all categories, with lookup indices.
class Taxonomy {
 public:
  Taxonomy();

  const std::vector<EventCategory>& categories() const { return categories_; }
  const EventCategory& category(CategoryId id) const;
  std::size_t size() const { return categories_.size(); }

  /// Ids of all true-fatal categories (the 69 prediction targets).
  const std::vector<CategoryId>& fatal_ids() const { return fatal_ids_; }
  /// Ids of all non-fatal categories (including nominally-fatal ones).
  const std::vector<CategoryId>& nonfatal_ids() const { return nonfatal_ids_; }
  /// Ids belonging to one facility.
  const std::vector<CategoryId>& facility_ids(Facility f) const;

  std::optional<CategoryId> find_by_name(std::string_view name) const;

  /// Classifies a raw record's (facility, severity, entry data) into a
  /// category by longest-pattern substring match, the lowest id winning
  /// a tie; nullopt if no category of that facility and severity
  /// matches.  "uncorrectable error detected in edram bank (code 1)"
  /// must not be shadowed by its un-suffixed sibling.
  std::optional<CategoryId> classify(Facility facility, Severity severity,
                                     std::string_view entry_data) const;

  struct FacilityCount {
    Facility facility;
    int fatal = 0;
    int nonfatal = 0;
  };
  /// Fatal / non-fatal category counts per facility (Table 3).
  std::vector<FacilityCount> facility_counts() const;

 private:
  std::vector<EventCategory> categories_;
  std::vector<CategoryId> fatal_ids_;
  std::vector<CategoryId> nonfatal_ids_;
  std::vector<std::vector<CategoryId>> by_facility_;
  /// Per (facility, severity): its categories by descending pattern
  /// length, ascending id among equal lengths.
  std::vector<std::vector<CategoryId>> by_class_;

  static std::size_t class_index(Facility facility, Severity severity);
};

/// Process-wide shared taxonomy (construction is deterministic).
const Taxonomy& taxonomy();

}  // namespace dml::bgl
