// Extensions bench — the paper's §7 future-work items, implemented and
// measured:
//   1. location-scoped ("where") prediction,
//   2. flat ensemble vs mixture-of-experts precedence.
#include <cstdio>
#include <iostream>

#include "online/driver.hpp"
#include "online/report.hpp"
#include "support/bench_logs.hpp"

namespace {

using namespace dml;

void location_study(const logio::EventStore& store) {
  std::printf("\n--- 1. location-scoped prediction ('when and where', "
              "paper §1.1) ---\n");
  online::TablePrinter table({"scope", "precision", "recall"});
  for (const bool scoped : {false, true}) {
    online::DriverConfig config;
    config.predictor.location_scoped = scoped;
    const auto result = online::DynamicDriver(config).run(store);
    table.add_row({scoped ? "midplane-scoped" : "system-wide (paper)",
                   online::TablePrinter::fmt(result.overall_precision()),
                   online::TablePrinter::fmt(result.overall_recall())});
  }
  table.print(std::cout);
  std::printf("(scoped warnings additionally pinpoint the failing "
              "midplane — a correct scoped warning is actionable for "
              "process migration)\n");
}

void precedence_study(const logio::EventStore& store) {
  std::printf("\n--- 2. mixture-of-experts precedence vs flat ensemble ---\n");
  online::TablePrinter table({"dispatch", "precision", "recall", "warnings"});
  for (const bool mixture : {true, false}) {
    online::DriverConfig config;
    config.predictor.mixture_precedence = mixture;
    const auto result = online::DynamicDriver(config).run(store);
    std::size_t warnings = 0;
    for (const auto& interval : result.intervals) {
      warnings += interval.warning_count;
    }
    table.add_row({mixture ? "mixture-of-experts (paper)" : "flat",
                   online::TablePrinter::fmt(result.overall_precision()),
                   online::TablePrinter::fmt(result.overall_recall()),
                   std::to_string(warnings)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_header("Extensions: the paper's §7 future-work items",
                      "location scoping, ensemble dispatch");
  const auto& store = bench::sdsc_store();
  location_study(store);
  precedence_study(store);
  return 0;
}
