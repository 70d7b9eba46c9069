#include "preprocess/categorizer.hpp"

#include <gtest/gtest.h>

namespace dml::preprocess {
namespace {

bgl::RasRecord record_for(const bgl::EventCategory& cat) {
  bgl::RasRecord r;
  r.facility = cat.facility;
  r.severity = cat.severity;
  r.entry_data = cat.pattern + " [inst 12345678]";
  return r;
}

TEST(Categorizer, ClassifiesGeneratedRecords) {
  Categorizer categorizer;
  const auto& tax = bgl::taxonomy();
  for (CategoryId id : tax.fatal_ids()) {
    const bgl::EventCategory* result =
        categorizer.classify(record_for(tax.category(id)));
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->id, id);
    EXPECT_TRUE(result->fatal);
  }
  EXPECT_EQ(categorizer.stats().classified, tax.fatal_ids().size());
  EXPECT_EQ(categorizer.stats().unclassified, 0u);
}

TEST(Categorizer, DemotesNominallyFatalRecords) {
  Categorizer categorizer;
  const auto& tax = bgl::taxonomy();
  const bgl::EventCategory* nominal = nullptr;
  for (const auto& cat : tax.categories()) {
    if (cat.nominally_fatal) {
      nominal = &cat;
      break;
    }
  }
  ASSERT_NE(nominal, nullptr);
  const bgl::RasRecord record = record_for(*nominal);
  const bgl::EventCategory* result = categorizer.classify(record);
  ASSERT_NE(result, nullptr);
  // Severity says FATAL, but the cleaned taxonomy says non-fatal.
  EXPECT_TRUE(record.is_fatal_severity());
  EXPECT_FALSE(result->fatal);
  EXPECT_EQ(categorizer.stats().demoted_nominal_fatal, 1u);
}

TEST(Categorizer, CountsUnclassifiedRecords) {
  Categorizer categorizer;
  bgl::RasRecord r;
  r.facility = bgl::Facility::kKernel;
  r.severity = Severity::kFatal;
  r.entry_data = "an entirely unknown message";
  EXPECT_EQ(categorizer.classify(r), nullptr);
  EXPECT_EQ(categorizer.stats().unclassified, 1u);
  EXPECT_EQ(categorizer.stats().classified, 0u);
}

TEST(Categorizer, ClassificationIgnoresTheOtherRecordAttributes) {
  // Only facility, severity and ENTRY DATA decide; the record id, job
  // and time that the filters key on never change the category.
  Categorizer categorizer;
  const auto& cat = bgl::taxonomy().category(0);
  bgl::RasRecord r = record_for(cat);
  r.record_id = 99;
  r.job_id = 7;
  r.event_time = 123456;
  r.location = bgl::Location::compute_chip(0, 1, 2, 3, 1);
  const bgl::EventCategory* result = categorizer.classify(r);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result, categorizer.classify(record_for(cat)));
  EXPECT_EQ(result->id, cat.id);
}

}  // namespace
}  // namespace dml::preprocess
