// Fixed-input checks of the helpers every metric and the output check
// rest on: the percentile rule, the warning-to-trigger mapping (tick
// warnings included) and the multiset comparison.
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

}  // namespace

int self_test() {
  failures = 0;

  // Nearest rank over 1..100: p50 is the 50th value, p99 the 99th.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(hundred, 1.0) == 100.0, "p100 of 1..100 is 100");
  const std::vector<double> three = {1.0, 2.0, 3.0};
  expect(percentile(three, 0.5) == 2.0, "p50 of {1,2,3} is 2");
  expect(percentile(three, 0.99) == 3.0, "p99 of {1,2,3} is 3");
  expect(percentile(std::vector<double>{}, 0.5) == 0.0, "empty sample is 0");

  // Items at t = 10, 20, 20, 30, 40.
  const std::vector<TimeSec> times = {10, 20, 20, 30, 40};
  expect(trigger_index(times, 20) == 1,
         "an event warning maps to the first item at its time");
  expect(trigger_index(times, 5) == 0, "before the first item maps to it");
  // A PD tick at T = 25 is issued when the item at 30 arrives; the
  // first item at or after 25 is that item.
  expect(trigger_index(times, 25) == 3, "a tick at 25 maps to the item at 30");
  // A tick exactly at an item's time fires on the next later item, but
  // maps to the item at its time, which was sent no later.
  expect(trigger_index(times, 30) == 3, "a tick at 30 maps to the item at 30");
  expect(trigger_index(times, 99) == 4, "past the end clamps to the last");

  const predict::Warning a{100, 400, 7, std::nullopt, 1,
                           learners::RuleSource::kAssociation};
  predict::Warning b = a;
  b.deadline += 1;
  std::vector<WarningKey> reference = {key_of(a), key_of(a), key_of(b)};
  std::vector<WarningKey> same = {key_of(b), key_of(a), key_of(a)};
  const MultisetDiff equal = compare_multisets(reference, same);
  expect(equal.missing == 0 && equal.extra == 0, "permutation matches");
  std::vector<WarningKey> perturbed = {key_of(a), key_of(b), key_of(b)};
  const MultisetDiff diff = compare_multisets(reference, perturbed);
  expect(diff.missing == 1 && diff.extra == 1,
         "one altered warning is one missing and one extra");

  std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
