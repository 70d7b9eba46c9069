// StreamingPipeline against reference::PreprocessChain, the copying
// chain with the per-facility classifier scan and unbounded filter maps
// that it replaced: event for event, with PipelineStats and
// Categorizer::Stats, on generated ANL and SDSC raw logs and on
// hand-built streams aimed at the two rules the rewrite relies on —
// longest pattern first with the lowest id breaking ties, and filters
// that forget keys more than two thresholds old.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "bgl/taxonomy.hpp"
#include "common/rng.hpp"
#include "loggen/generator.hpp"
#include "logio/record_sink.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "reference_impl.hpp"
#include "support/test_fixtures.hpp"

namespace dml::preprocess {
namespace {

constexpr DurationSec kThresholds[] = {0, 1, 60, 300, 3600};

void expect_same_as_reference(const std::vector<bgl::RasRecord>& records,
                              DurationSec threshold) {
  StreamingPipeline pipeline(threshold);
  reference::PreprocessChain oracle(threshold);
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(pipeline.push(records[i]), oracle.push(records[i]))
        << "record " << i << " at threshold " << threshold;
  }
  EXPECT_EQ(pipeline.stats(), oracle.stats()) << "threshold " << threshold;
  EXPECT_EQ(pipeline.categorizer_stats(), oracle.categorizer_stats())
      << "threshold " << threshold;
}

std::vector<bgl::RasRecord> raw_log(loggen::MachineProfile profile,
                                    std::uint64_t seed) {
  profile.weeks = 4;
  logio::VectorSink sink;
  loggen::LogGenerator(profile, seed).generate(sink);
  return sink.take();
}

TEST(PreprocessReference, AnlRawLogMatchesAtEveryThreshold) {
  const auto records = raw_log(loggen::MachineProfile::anl(), 1005);
  ASSERT_GT(records.size(), 10000u);
  for (DurationSec threshold : kThresholds) {
    expect_same_as_reference(records, threshold);
  }
}

TEST(PreprocessReference, SdscRawLogMatchesAtEveryThreshold) {
  const auto records = raw_log(loggen::MachineProfile::sdsc(), 1204);
  ASSERT_GT(records.size(), 10000u);
  for (DurationSec threshold : kThresholds) {
    expect_same_as_reference(records, threshold);
  }
}

bgl::RasRecord record_of(const bgl::EventCategory& cat, std::string entry,
                         TimeSec t = 0, JobId job = 1) {
  bgl::RasRecord r;
  r.facility = cat.facility;
  r.severity = cat.severity;
  r.event_time = t;
  r.job_id = job;
  r.location = bgl::Location::compute_chip(0, 0, 1, 2, 0);
  r.entry_data = std::move(entry);
  return r;
}

TEST(PreprocessReference, EqualLengthPatternsResolveToTheLowestId) {
  const auto& tax = bgl::taxonomy();
  std::vector<bgl::RasRecord> records;
  std::size_t ties = 0;
  for (const auto& a : tax.categories()) {
    for (const auto& b : tax.categories()) {
      if (b.id <= a.id || b.facility != a.facility ||
          b.severity != a.severity ||
          b.pattern.size() != a.pattern.size()) {
        continue;
      }
      ++ties;
      // Either order in the text: the id, not the position, decides.
      for (const std::string& entry :
           {a.pattern + " / " + b.pattern, b.pattern + " / " + a.pattern}) {
        const auto got = tax.classify(a.facility, a.severity, entry);
        EXPECT_EQ(got, reference::classify(tax, a.facility, a.severity, entry));
        EXPECT_EQ(got, a.id) << entry;
        records.push_back(record_of(a, entry));
      }
    }
  }
  ASSERT_GT(ties, 0u) << "the taxonomy has no equal-length patterns to tie";
  expect_same_as_reference(records, 0);
}

TEST(PreprocessReference, TheLongestOfSeveralPatternsWins) {
  const auto& tax = bgl::taxonomy();
  std::vector<bgl::RasRecord> records;
  for (const auto& cat : tax.categories()) {
    // Every pattern of the record's (facility, severity) in one entry,
    // shortest first, so a first-hit scan in text order would fail.
    std::vector<const bgl::EventCategory*> peers;
    for (const auto& other : tax.categories()) {
      if (other.facility == cat.facility && other.severity == cat.severity) {
        peers.push_back(&other);
      }
    }
    std::stable_sort(peers.begin(), peers.end(), [](auto* x, auto* y) {
      return x->pattern.size() < y->pattern.size();
    });
    std::string entry;
    for (const auto* peer : peers) entry += peer->pattern + " | ";
    const auto got = tax.classify(cat.facility, cat.severity, entry);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(tax.category(*got).pattern.size(), peers.back()->pattern.size());
    EXPECT_EQ(got, reference::classify(tax, cat.facility, cat.severity, entry));
    records.push_back(record_of(cat, entry));
  }
  expect_same_as_reference(records, 0);
}

TEST(PreprocessReference, UnclassifiedRecordsAreCountedAlike) {
  const auto& tax = bgl::taxonomy();
  const auto& cat = tax.category(tax.fatal_ids().front());
  std::vector<bgl::RasRecord> records;
  records.push_back(record_of(cat, "an entirely unknown message"));
  records.push_back(record_of(cat, ""));
  // The right pattern under the wrong severity classifies as nothing.
  bgl::RasRecord wrong_severity = record_of(cat, cat.pattern);
  wrong_severity.severity = Severity::kInfo;
  records.push_back(wrong_severity);
  records.push_back(record_of(cat, cat.pattern));
  for (DurationSec threshold : kThresholds) {
    expect_same_as_reference(records, threshold);
  }
  StreamingPipeline pipeline(300);
  for (const auto& r : records) pipeline.push(r);
  EXPECT_EQ(pipeline.stats().unclassified, 3u);
  EXPECT_EQ(pipeline.categorizer_stats().unclassified, 3u);
}

/// `count` records of `cat` at `t`, each with its own job: distinct
/// keys for both filters, enough to make them sweep.
void add_distinct_keys(std::vector<bgl::RasRecord>& records,
                       const bgl::EventCategory& cat, TimeSec t,
                       std::size_t count, JobId first_job) {
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(record_of(cat, cat.pattern + " [filler]", t,
                                first_job + static_cast<JobId>(i)));
  }
}

TEST(PreprocessReference, AKeyForgottenAcrossASweepStartsTheSameTuples) {
  const auto& cat = bgl::taxonomy().category(0);
  constexpr DurationSec kT = 300;
  std::vector<bgl::RasRecord> records;
  records.push_back(record_of(cat, cat.pattern + " [key]", 0));
  // Exactly one threshold later: merged.
  records.push_back(record_of(cat, cat.pattern + " [key]", kT));
  // Enough new keys, two thresholds on, that both filters sweep while
  // the key's last record (at kT) is more than two thresholds behind.
  add_distinct_keys(records, cat, 3 * kT + 5,
                    2 * TupleWindow::kSweepFloor, 1000);
  // Just over two thresholds after its last record, and a little
  // behind the newest time: a new tuple, remembered or not.
  records.push_back(record_of(cat, cat.pattern + " [key]", 3 * kT + 1));
  // ...and one threshold after that: merged into the new tuple.
  records.push_back(record_of(cat, cat.pattern + " [key]", 4 * kT + 1));
  for (DurationSec threshold : {kT, kT - 1, kT + 1}) {
    expect_same_as_reference(records, threshold);
  }

  StreamingPipeline pipeline(kT);
  std::vector<bool> kept;
  for (const auto& r : records) kept.push_back(pipeline.push(r).has_value());
  EXPECT_TRUE(kept[0]);
  EXPECT_FALSE(kept[1]);
  EXPECT_TRUE(kept[kept.size() - 2]);
  EXPECT_FALSE(kept.back());
}

TEST(PreprocessReference, OutOfOrderWithinOneThresholdMatches) {
  // Times wander back by up to one threshold behind the newest seen.
  // Half the records are one-off keys, so both filters sweep every
  // couple of thousand records; the other half cycle through a few hot
  // keys whose gaps often straddle one or two thresholds, so a key
  // forgotten too early would show as a missed merge.
  const auto& tax = bgl::taxonomy();
  Rng rng(testing::fuzz_seed(4242));
  for (DurationSec threshold : {DurationSec{1}, DurationSec{60},
                                DurationSec{300}}) {
    const std::size_t hot_keys = 4 + static_cast<std::size_t>(threshold) / 4;
    std::vector<bgl::RasRecord> records;
    TimeSec newest = 0;
    JobId next_one_off = 100000;
    for (int i = 0; i < 40000; ++i) {
      newest += static_cast<TimeSec>(rng.uniform_index(3));
      const TimeSec t =
          newest - static_cast<TimeSec>(rng.uniform_index(
                       static_cast<std::size_t>(threshold) + 1));
      const bool hot = rng.bernoulli(0.5);
      const std::size_t key = hot ? rng.uniform_index(hot_keys) : 0;
      const auto& cat = tax.category(
          static_cast<CategoryId>(hot ? key : rng.uniform_index(tax.size())));
      records.push_back(record_of(
          cat, cat.pattern + " [" + std::to_string(key % 3) + "]", t,
          hot ? static_cast<JobId>(key) : next_one_off++));
    }
    expect_same_as_reference(records, threshold);
  }
}

TEST(PreprocessReference, FilterMapsStayBoundedOnAnEndlessStream) {
  // One fresh key per record for ten thousand thresholds: the oracle
  // would remember every key, the filters only about two thresholds'
  // worth (plus the doubling slack before a sweep).
  const auto& cat = bgl::taxonomy().category(0);
  constexpr DurationSec kT = 10;
  TemporalFilter temporal(kT);
  SpatialFilter spatial(kT);
  std::size_t most = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto r = record_of(cat, "entry " + std::to_string(i), i / 10,
                             static_cast<JobId>(i));
    EXPECT_TRUE(temporal.admit(r, cat.id));
    EXPECT_TRUE(spatial.admit(r));
    most = std::max({most, temporal.keys(), spatial.keys()});
  }
  EXPECT_LE(most, 2 * TupleWindow::kSweepFloor);
}

}  // namespace
}  // namespace dml::preprocess
