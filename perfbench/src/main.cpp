// perfbench — the dmlfpd benchmark's load generator, traced ledger and
// self test.  perfbench/run.py builds it and passes each workload's
// definition from perfbench/workloads.json as flags:
//
//   perfbench run --workload raw_replay --input raw --weeks 112
//       --engine "--training-weeks 26 --retrain-weeks 4 --mode sliding"
//       --seed 1 --seconds 10 --trace 0 --dmlfpd PATH --workdir DIR
//   perfbench selftest
//
// The last line of stdout is the run's JSON result; everything else
// goes to stderr.  Exit status is 0 only when the output check passed.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "support/flags.hpp"

namespace {

using namespace perfbench;

std::vector<std::string> split(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> words;
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

void print_result(const RunOutcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const dml::tools::Flags& flags) {
  WorkloadSpec spec;
  spec.name = flags.get_or("workload", "");
  spec.input = flags.get_or("input", "events");
  spec.weeks = static_cast<int>(flags.get_long("weeks", 112));
  spec.tile_to = static_cast<std::size_t>(flags.get_long("tile-to", 0));
  spec.rate = std::strtod(flags.get_or("rate", "0").c_str(), nullptr);
  spec.durable = flags.get_long("durable", 0) != 0;
  spec.engine_args = split(flags.get_or("engine", ""));

  Env env;
  env.dmlfpd = flags.get_or("dmlfpd", "");
  env.workdir = flags.get_or("workdir", "");
  env.seed = static_cast<std::uint64_t>(flags.get_long("seed", 1));
  env.seconds = std::strtod(flags.get_or("seconds", "10").c_str(), nullptr);
  env.perturb = flags.get_long("perturb", 0) != 0;
  if (spec.name.empty() || env.dmlfpd.empty() || env.workdir.empty() ||
      env.seconds <= 0) {
    std::fprintf(stderr, "perfbench: run needs --workload, --dmlfpd, "
                         "--workdir and --seconds > 0\n");
    return 2;
  }
  std::filesystem::create_directories(env.workdir);

  const RunOutcome outcome =
      flags.get_long("trace", 0) != 0
          ? run_traced(env, spec, make_inputs(spec, pass_seed(env.seed, 0)))
          : run_end_to_end(env, spec);
  for (const Metric& m : outcome.metrics) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  print_result(outcome);
  return outcome.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run [flags] | perfbench selftest\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "selftest") return self_test() == 0 ? 0 : 1;
  if (command != "run") {
    std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
    return 2;
  }
  const dml::tools::Flags flags(argc, argv, 2);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "perfbench: %s\n", flags.error().c_str());
    return 2;
  }
  try {
    return run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
