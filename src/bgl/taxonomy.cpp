#include "bgl/taxonomy.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "common/check.hpp"
#include "common/string_util.hpp"

namespace dml::bgl {
namespace {

std::string make_variant(std::string_view base, int variant) {
  if (variant == 0) return std::string(base);
  return std::string(base) + " (code " + std::to_string(variant) + ")";
}

std::string slug(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == ' ' || c == '(' || c == ')') {
      if (!out.empty() && out.back() != '-') out.push_back('-');
    } else {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

/// Seed message stems for one facility; expanded cyclically with variant
/// codes until the Table 3 category count is reached.
struct FacilitySpec {
  Facility facility;
  EventType event_type;
  LocationKind origin;
  int num_fatal;     // true failures
  int num_nonfatal;  // includes nominally-fatal demotions
  int num_nominal;   // of the non-fatal count, how many carry FATAL severity
  std::vector<std::string_view> fatal_stems;
  std::vector<std::string_view> warning_stems;
};

std::vector<FacilitySpec> facility_specs() {
  // Counts follow Table 3 exactly: 69 fatal, 150 non-fatal, 219 total.
  // Stems follow the examples quoted in the paper (§2.1, §4.1, Table 3)
  // and the published Blue Gene/L log studies.
  std::vector<FacilitySpec> specs;

  specs.push_back({Facility::kApp, EventType::kAppOut,
                   LocationKind::kComputeChip, 10, 7, 0,
                   {"load program failure", "function call failure",
                    "application segmentation fault",
                    "ciod communication failure socket closed",
                    "application assertion failure"},
                   {"application warning retry exceeded",
                    "ciod io stream warning", "program image load info"}});

  specs.push_back({Facility::kBglMaster, EventType::kMmcs,
                   LocationKind::kServiceCard, 2, 2, 0,
                   {"bglmaster segmentation failure",
                    "bglmaster heartbeat failure"},
                   {"bglmaster restart info", "bglmaster startup info"}});

  specs.push_back({Facility::kCmcs, EventType::kMmcs,
                   LocationKind::kServiceCard, 0, 4, 0,
                   {},
                   {"cmcs command info", "cmcs exit info",
                    "cmcs polling agent info", "cmcs db write warning"}});

  specs.push_back({Facility::kDiscovery, EventType::kRas,
                   LocationKind::kNodeCard, 0, 24, 0,
                   {},
                   {"nodecard communication warning",
                    "servicecard read error", "nodecard vpd read warning",
                    "linkcard presence warning", "clock card status info",
                    "fan module discovery warning",
                    "power module discovery warning",
                    "ido packet discovery warning"}});

  specs.push_back({Facility::kHardware, EventType::kRas,
                   LocationKind::kMidplane, 1, 12, 1,
                   {"midplane switch failure"},
                   {"midplane service warning", "power supply voltage warning",
                    "fan speed warning", "temperature sensor warning",
                    "bulk power module error", "clock signal warning"}});

  specs.push_back({Facility::kKernel, EventType::kRas,
                   LocationKind::kComputeChip, 46, 90, 6,
                   {"uncorrectable torus error",
                    "uncorrectable error detected in edram bank",
                    "broadcast failure", "cache failure", "cpu failure",
                    "node map file error", "kernel panic",
                    "tree receiver failure", "torus sender failure",
                    "instruction address parity error",
                    "data storage interrupt failure",
                    "double hummer exception", "l3 ecc uncorrectable error",
                    "scratch ram uncorrectable error"},
                   {"correctable error detected in edram bank",
                    "torus retransmission warning", "l1 parity warning",
                    "ddr correctable ecc warning", "tree packet warning",
                    "rts tree warning", "instruction cache parity warning",
                    "data cache correctable warning", "torus crc warning",
                    "memory scrub info", "kernel shutdown info",
                    "rts kernel boot info"}});

  specs.push_back({Facility::kLinkCard, EventType::kRas,
                   LocationKind::kLinkCard, 1, 0, 0,
                   {"linkcard failure"},
                   {}});

  specs.push_back({Facility::kMmcs, EventType::kMmcs,
                   LocationKind::kServiceCard, 0, 5, 0,
                   {},
                   {"control network mmcs error", "mmcs boot info",
                    "mmcs block allocation info", "mmcs console warning",
                    "idoproxy communication warning"}});

  specs.push_back({Facility::kMonitor, EventType::kRas,
                   LocationKind::kNodeCard, 9, 5, 1,
                   {"node card temperature error",
                    "node card power failure", "service card monitor failure",
                    "fan failure detected by monitor"},
                   {"temperature over threshold warning",
                    "voltage monitor warning", "monitor sample info"}});

  specs.push_back({Facility::kServNet, EventType::kRas,
                   LocationKind::kServiceCard, 0, 1, 0,
                   {},
                   {"system operation error"}});

  return specs;
}

}  // namespace

std::string_view to_string(Facility f) {
  switch (f) {
    case Facility::kApp: return "APP";
    case Facility::kBglMaster: return "BGLMASTER";
    case Facility::kCmcs: return "CMCS";
    case Facility::kDiscovery: return "DISCOVERY";
    case Facility::kHardware: return "HARDWARE";
    case Facility::kKernel: return "KERNEL";
    case Facility::kLinkCard: return "LINKCARD";
    case Facility::kMmcs: return "MMCS";
    case Facility::kMonitor: return "MONITOR";
    case Facility::kServNet: return "SERV_NET";
  }
  return "UNKNOWN";
}

std::optional<Facility> facility_from_string(std::string_view text) {
  for (int i = 0; i < kNumFacilities; ++i) {
    const auto f = static_cast<Facility>(i);
    if (text == to_string(f)) return f;
  }
  return std::nullopt;
}

std::string_view to_string(EventType t) {
  switch (t) {
    case EventType::kRas: return "RAS";
    case EventType::kMmcs: return "MMCS";
    case EventType::kAppOut: return "APPOUT";
  }
  return "UNKNOWN";
}

std::optional<EventType> event_type_from_string(std::string_view text) {
  if (text == "RAS") return EventType::kRas;
  if (text == "MMCS") return EventType::kMmcs;
  if (text == "APPOUT") return EventType::kAppOut;
  return std::nullopt;
}

Taxonomy::Taxonomy() : by_facility_(kNumFacilities) {
  const auto specs = facility_specs();

  auto add_category = [this](Facility facility, EventType event_type,
                             LocationKind origin, Severity severity,
                             bool fatal, bool nominal, std::string pattern) {
    EventCategory cat;
    cat.id = static_cast<CategoryId>(categories_.size());
    cat.facility = facility;
    cat.event_type = event_type;
    cat.origin = origin;
    cat.severity = severity;
    cat.fatal = fatal;
    cat.nominally_fatal = nominal;
    cat.name = std::string(to_string(facility)) + "." + slug(pattern);
    cat.pattern = std::move(pattern);
    by_facility_[static_cast<std::size_t>(facility)].push_back(cat.id);
    (fatal ? fatal_ids_ : nonfatal_ids_).push_back(cat.id);
    categories_.push_back(std::move(cat));
  };

  for (const auto& spec : specs) {
    // True fatal categories: severity alternates FATAL / FAILURE.
    for (int i = 0; i < spec.num_fatal; ++i) {
      const auto& stem =
          spec.fatal_stems[static_cast<std::size_t>(i) %
                           spec.fatal_stems.size()];
      const int variant =
          i / static_cast<int>(spec.fatal_stems.size());
      const Severity sev =
          (i % 2 == 0) ? Severity::kFatal : Severity::kFailure;
      add_category(spec.facility, spec.event_type, spec.origin, sev,
                   /*fatal=*/true, /*nominal=*/false,
                   make_variant(stem, variant));
    }
    // Nominally-fatal categories: FATAL severity, demoted to non-fatal.
    for (int i = 0; i < spec.num_nominal; ++i) {
      const auto& stem =
          spec.warning_stems[static_cast<std::size_t>(i) %
                             spec.warning_stems.size()];
      add_category(spec.facility, spec.event_type, spec.origin,
                   Severity::kFatal, /*fatal=*/false, /*nominal=*/true,
                   make_variant(stem, 90 + i));
    }
    // Plain non-fatal categories: severities cycle INFO..ERROR.
    const int plain = spec.num_nonfatal - spec.num_nominal;
    static constexpr Severity kCycle[] = {Severity::kWarning, Severity::kInfo,
                                          Severity::kSevere, Severity::kError};
    for (int i = 0; i < plain; ++i) {
      const auto& stem =
          spec.warning_stems[static_cast<std::size_t>(i) %
                             spec.warning_stems.size()];
      const int variant =
          i / static_cast<int>(spec.warning_stems.size());
      add_category(spec.facility, spec.event_type, spec.origin,
                   kCycle[i % 4], /*fatal=*/false, /*nominal=*/false,
                   make_variant(stem, variant));
    }
  }
  // Table 3 pins the taxonomy: 69 fatal + 150 non-fatal = 219
  // categories.  Everything downstream (CategoryId tables, golden logs,
  // the dense remap) is sized off these counts, so a drifted spec must
  // fail here, not as silent misclassification later.
  DML_CHECK_MSG(fatal_ids_.size() == 69, "Table 3: 69 fatal categories");
  DML_CHECK_MSG(nonfatal_ids_.size() == 150,
                "Table 3: 150 non-fatal categories");
  DML_CHECK_MSG(categories_.size() == 219, "Table 3: 219 categories total");

  // classify()'s rule, precomputed: within one (facility, severity), the
  // longest pattern wins and the lowest id breaks a tie, so the first
  // hit in this order is the answer.
  by_class_.resize(kNumFacilities * kNumSeverities);
  for (const EventCategory& cat : categories_) {
    by_class_[class_index(cat.facility, cat.severity)].push_back(cat.id);
  }
  for (auto& ids : by_class_) {
    std::stable_sort(ids.begin(), ids.end(), [&](CategoryId a, CategoryId b) {
      return categories_[a].pattern.size() > categories_[b].pattern.size();
    });
  }
}

std::size_t Taxonomy::class_index(Facility facility, Severity severity) {
  return static_cast<std::size_t>(facility) * kNumSeverities +
         static_cast<std::size_t>(severity);
}

const EventCategory& Taxonomy::category(CategoryId id) const {
  if (id >= categories_.size()) {
    throw std::out_of_range("Taxonomy::category: bad id");
  }
  return categories_[id];
}

const std::vector<CategoryId>& Taxonomy::facility_ids(Facility f) const {
  return by_facility_[static_cast<std::size_t>(f)];
}

std::optional<CategoryId> Taxonomy::find_by_name(std::string_view name) const {
  for (const auto& cat : categories_) {
    if (cat.name == name) return cat.id;
  }
  return std::nullopt;
}

std::optional<CategoryId> Taxonomy::classify(
    Facility facility, Severity severity, std::string_view entry_data) const {
  for (CategoryId id : by_class_[class_index(facility, severity)]) {
    if (entry_data.find(categories_[id].pattern) != std::string_view::npos) {
      return id;
    }
  }
  return std::nullopt;
}

std::vector<Taxonomy::FacilityCount> Taxonomy::facility_counts() const {
  std::vector<FacilityCount> counts;
  counts.reserve(kNumFacilities);
  for (int i = 0; i < kNumFacilities; ++i) {
    FacilityCount fc;
    fc.facility = static_cast<Facility>(i);
    for (CategoryId id : by_facility_[static_cast<std::size_t>(i)]) {
      if (categories_[id].fatal) {
        ++fc.fatal;
      } else {
        ++fc.nonfatal;
      }
    }
    counts.push_back(fc);
  }
  return counts;
}

const Taxonomy& taxonomy() {
  static const Taxonomy instance;
  return instance;
}

}  // namespace dml::bgl
