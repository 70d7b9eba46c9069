#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "preprocess/spatial_filter.hpp"
#include "preprocess/temporal_filter.hpp"

namespace dml::preprocess {
namespace {

/// A raw record and the category the categorizer gave it.
struct Classified {
  bgl::RasRecord record;
  CategoryId category = kInvalidCategory;
};

Classified make(TimeSec t, bgl::Location location, JobId job,
                CategoryId category, std::string entry = "msg") {
  Classified r;
  r.record.event_time = t;
  r.record.location = location;
  r.record.job_id = job;
  r.record.entry_data = std::move(entry);
  r.category = category;
  return r;
}

bool admit(TemporalFilter& filter, const Classified& r) {
  return filter.admit(r.record, r.category);
}

bool admit(SpatialFilter& filter, const Classified& r) {
  return filter.admit(r.record);
}

const bgl::Location kLocA = bgl::Location::compute_chip(0, 0, 1, 2, 0);
const bgl::Location kLocB = bgl::Location::compute_chip(0, 0, 1, 2, 1);

TEST(TemporalFilter, MergesCloseRepeatsAtSameLocation) {
  TemporalFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_FALSE(admit(filter, make(1100, kLocA, 1, 5)));
  EXPECT_FALSE(admit(filter, make(1399, kLocA, 1, 5)));
  EXPECT_EQ(filter.passed(), 1u);
  EXPECT_EQ(filter.merged(), 2u);
}

TEST(TemporalFilter, GapBasedWindowSlides) {
  // Tupling: each merged record extends the window (Hansen-Siewiorek).
  TemporalFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_FALSE(admit(filter, make(1290, kLocA, 1, 5)));
  // 1590 is > 1000+300 but within 300 of 1290: still merged.
  EXPECT_FALSE(admit(filter, make(1590, kLocA, 1, 5)));
  // A large gap starts a new tuple.
  EXPECT_TRUE(admit(filter, make(2000, kLocA, 1, 5)));
}

TEST(TemporalFilter, DifferentLocationNotMerged) {
  TemporalFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_TRUE(admit(filter, make(1001, kLocB, 1, 5)));
}

TEST(TemporalFilter, DifferentJobNotMerged) {
  TemporalFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_TRUE(admit(filter, make(1001, kLocA, 2, 5)));
}

TEST(TemporalFilter, DifferentCategoryNotMerged) {
  TemporalFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_TRUE(admit(filter, make(1001, kLocA, 1, 6)));
}

TEST(TemporalFilter, ZeroThresholdDisablesCompression) {
  TemporalFilter filter(0);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_EQ(filter.merged(), 0u);
}

TEST(TemporalFilter, BoundaryExactlyAtThresholdMerges) {
  TemporalFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5)));
  EXPECT_FALSE(admit(filter, make(1300, kLocA, 1, 5)));  // == 300
  EXPECT_TRUE(admit(filter, make(1601, kLocA, 1, 5)));   // 301
}

TEST(SpatialFilter, MergesSameEntryAcrossLocations) {
  // "same Entry Data and Job ID, but from different locations" (§3.2).
  SpatialFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5, "edram [x]")));
  EXPECT_FALSE(admit(filter, make(1050, kLocB, 1, 5, "edram [x]")));
  EXPECT_EQ(filter.merged(), 1u);
}

TEST(SpatialFilter, DifferentEntryDataNotMerged) {
  SpatialFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5, "edram [x]")));
  EXPECT_TRUE(admit(filter, make(1050, kLocB, 1, 5, "edram [y]")));
}

TEST(SpatialFilter, DifferentJobNotMerged) {
  SpatialFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5, "edram [x]")));
  EXPECT_TRUE(admit(filter, make(1050, kLocB, 2, 5, "edram [x]")));
}

TEST(SpatialFilter, FarApartNotMerged) {
  SpatialFilter filter(300);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5, "edram [x]")));
  EXPECT_TRUE(admit(filter, make(1500, kLocB, 1, 5, "edram [x]")));
}

TEST(SpatialFilter, ZeroThresholdDisables) {
  SpatialFilter filter(0);
  EXPECT_TRUE(admit(filter, make(1000, kLocA, 1, 5, "m")));
  EXPECT_TRUE(admit(filter, make(1000, kLocB, 1, 5, "m")));
}

TEST(Filters, LargerThresholdNeverKeepsMoreRecords) {
  // Monotonicity property behind Table 4's columns.
  std::vector<Classified> stream;
  Rng rng(3);
  TimeSec t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<TimeSec>(rng.uniform_index(120));
    stream.push_back(make(t, rng.bernoulli(0.5) ? kLocA : kLocB,
                          static_cast<JobId>(rng.uniform_index(3)),
                          static_cast<CategoryId>(rng.uniform_index(4)),
                          std::string{'m', static_cast<char>(
                                               '0' + rng.uniform_index(4))}));
  }
  std::size_t previous = stream.size() + 1;
  for (DurationSec threshold : {10, 60, 120, 200, 300, 400}) {
    TemporalFilter temporal(threshold);
    SpatialFilter spatial(threshold);
    std::size_t kept = 0;
    for (const auto& r : stream) {
      if (admit(temporal, r) && admit(spatial, r)) ++kept;
    }
    EXPECT_LE(kept, previous) << threshold;
    previous = kept;
  }
}

}  // namespace
}  // namespace dml::preprocess
