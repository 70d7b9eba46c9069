#include "preprocess/categorizer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

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

// ---- The memo, pinned to the reference classifier ----------------------

/// Classifies `record` and checks the answer and the stats against the
/// reference classifier (the pre-optimization facility scan).
void expect_reference(Categorizer& categorizer, const bgl::RasRecord& record,
                      Categorizer::Stats& expected) {
  const auto want = reference::classify(bgl::taxonomy(), record.facility,
                                        record.severity, record.entry_data);
  const bgl::EventCategory* got = categorizer.classify(record);
  if (want) {
    ASSERT_NE(got, nullptr) << record.entry_data;
    EXPECT_EQ(got->id, *want) << record.entry_data;
    ++expected.classified;
    if (record.is_fatal_severity() && !got->fatal) {
      ++expected.demoted_nominal_fatal;
    }
  } else {
    EXPECT_EQ(got, nullptr) << record.entry_data;
    ++expected.unclassified;
  }
  EXPECT_EQ(categorizer.stats(), expected);
}

std::string instance_entry(const bgl::EventCategory& cat, std::uint64_t n) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), " [inst %08llx]",
                static_cast<unsigned long long>(n));
  return cat.pattern + suffix;
}

TEST(CategorizerMemo, TwoKeysAlternatingInOneSlot) {
  // Two categories' entries that land in the same slot: each lookup
  // evicts the other, and neither may ever come back as the other's.
  const auto& tax = bgl::taxonomy();
  bgl::RasRecord a = record_for(tax.category(tax.fatal_ids().front()));
  bgl::RasRecord b = record_for(tax.category(tax.nonfatal_ids().front()));
  const std::size_t slot =
      Categorizer::memo_slot(a.facility, a.severity, a.entry_data);
  for (std::uint64_t n = 0;; ++n) {
    ASSERT_LT(n, 1'000'000u) << "no conflicting key found";
    b.entry_data = instance_entry(tax.category(tax.nonfatal_ids().front()), n);
    if (Categorizer::memo_slot(b.facility, b.severity, b.entry_data) == slot) {
      break;
    }
  }
  Categorizer categorizer;
  Categorizer::Stats expected;
  for (int round = 0; round < 8; ++round) {
    expect_reference(categorizer, a, expected);
    expect_reference(categorizer, b, expected);
  }
  EXPECT_EQ(expected.classified, 16u);
}

TEST(CategorizerMemo, OneEntryUnderTwoFacilitySeverityPairs) {
  // The key is (facility, severity, entry), not the entry alone: the
  // same text classifies by the pair it arrives under.
  const auto& tax = bgl::taxonomy();
  const bgl::EventCategory& cat = tax.category(tax.fatal_ids().front());
  bgl::RasRecord own = record_for(cat);
  bgl::RasRecord other_severity = own;
  other_severity.severity =
      cat.severity == Severity::kInfo ? Severity::kWarning : Severity::kInfo;
  bgl::RasRecord other_facility = own;
  other_facility.facility = cat.facility == bgl::Facility::kMmcs
                                ? bgl::Facility::kApp
                                : bgl::Facility::kMmcs;
  Categorizer categorizer;
  Categorizer::Stats expected;
  for (int round = 0; round < 4; ++round) {
    expect_reference(categorizer, own, expected);
    expect_reference(categorizer, other_severity, expected);
    expect_reference(categorizer, other_facility, expected);
  }
  // The pairs really do classify differently.
  EXPECT_GE(expected.classified, 4u);
  EXPECT_GT(expected.unclassified, 0u);
}

TEST(CategorizerMemo, UnclassifiedEntryIsRememberedAsUnclassified) {
  Categorizer categorizer;
  Categorizer::Stats expected;
  bgl::RasRecord r;
  r.facility = bgl::Facility::kKernel;
  r.severity = Severity::kFatal;
  r.entry_data = "an entirely unknown message";
  for (int round = 0; round < 5; ++round) {
    expect_reference(categorizer, r, expected);
  }
  EXPECT_EQ(categorizer.stats().unclassified, 5u);
}

TEST(CategorizerMemo, EntryLongerThanTheCapBypassesTheMemo) {
  const auto& tax = bgl::taxonomy();
  bgl::RasRecord r = record_for(tax.category(tax.fatal_ids().back()));
  r.entry_data.append(Categorizer::kMemoMaxEntry + 1 - r.entry_data.size(),
                      'x');
  Categorizer categorizer;
  Categorizer::Stats expected;
  for (int round = 0; round < 3; ++round) {
    expect_reference(categorizer, r, expected);
  }
  EXPECT_EQ(categorizer.memo_key_bytes(), 0u);
  // At the cap itself the key is remembered.
  r.entry_data.resize(Categorizer::kMemoMaxEntry);
  expect_reference(categorizer, r, expected);
  EXPECT_GE(categorizer.memo_key_bytes(), Categorizer::kMemoMaxEntry);
}

TEST(CategorizerMemo, TenThousandDistinctEntriesStayWithinTheMemoBound) {
  // Every key distinct and as long as the memo takes: every slot ends up
  // reserving a full-length key, and no more.
  Rng rng(testing::fuzz_seed(4242));
  const auto& cats = bgl::taxonomy().categories();
  Categorizer categorizer;
  EXPECT_EQ(categorizer.memo_key_bytes(), 0u);
  Categorizer::Stats expected;
  std::vector<bgl::RasRecord> records;
  for (std::uint64_t n = 0; n < 10'000; ++n) {
    const bgl::EventCategory& cat = cats[rng.next_u64() % cats.size()];
    bgl::RasRecord r = record_for(cat);
    r.entry_data = instance_entry(cat, n);
    // Some keys stay unclassified: the right text under another severity.
    if (n % 7 == 0) {
      r.severity = static_cast<Severity>(
          (static_cast<int>(r.severity) + 1) % kNumSeverities);
    }
    r.entry_data.resize(n % 3 == 0 ? Categorizer::kMemoMaxEntry
                                   : r.entry_data.size() + n % 40,
                        '.');
    records.push_back(std::move(r));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& r : records) {
      expect_reference(categorizer, r, expected);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_LE(categorizer.memo_key_bytes(),
            Categorizer::kMemoSlots * Categorizer::kMemoMaxEntry);
  EXPECT_GT(categorizer.memo_key_bytes(),
            Categorizer::kMemoSlots * Categorizer::kMemoMaxEntry / 2);
}

}  // namespace
}  // namespace dml::preprocess
