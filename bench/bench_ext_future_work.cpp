// Extensions bench — the paper's §7 future-work items, implemented and
// measured:
//   1. adaptive prediction-window selection,
//   2. location-scoped ("where") prediction,
//   3. flat ensemble vs mixture-of-experts precedence.
#include <cstdio>
#include <iostream>
#include <map>

#include "online/driver.hpp"
#include "online/report.hpp"
#include "support/bench_logs.hpp"

namespace {

using namespace dml;

void adaptive_window_study(const logio::EventStore& store) {
  std::printf("\n--- 1. adaptive prediction window (paper: 'automatically "
              "tune its size') ---\n");
  online::DriverConfig fixed;
  const auto fixed_result = online::DynamicDriver(fixed).run(store);

  online::DriverConfig adaptive;
  adaptive.adaptive_window = true;
  const auto adaptive_result = online::DynamicDriver(adaptive).run(store);

  std::map<DurationSec, int> chosen;
  for (const auto& interval : adaptive_result.intervals) {
    ++chosen[interval.window_used];
  }
  std::printf("fixed 300 s  : precision %.2f recall %.2f F1 %.2f\n",
              fixed_result.overall_precision(), fixed_result.overall_recall(),
              stats::f1_score(fixed_result.total_counts()));
  std::printf("adaptive     : precision %.2f recall %.2f F1 %.2f\n",
              adaptive_result.overall_precision(),
              adaptive_result.overall_recall(),
              stats::f1_score(adaptive_result.total_counts()));
  std::printf("windows chosen:");
  for (const auto& [window, count] : chosen) {
    std::printf("  %llds x%d", static_cast<long long>(window), count);
  }
  std::printf("\n");
}

void location_study(const logio::EventStore& store) {
  std::printf("\n--- 2. location-scoped prediction ('when and where', "
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
  std::printf("\n--- 3. mixture-of-experts precedence vs flat ensemble ---\n");
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
                      "adaptive window, location scoping, ensemble dispatch");
  const auto& store = bench::sdsc_store();
  adaptive_window_study(store);
  location_study(store);
  precedence_study(store);
  return 0;
}
