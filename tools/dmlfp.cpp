// dmlfp — command-line front end for the dynamic meta-learning failure
// predictor.
//
//   dmlfp generate  --machine sdsc --weeks 40 --seed 1 --out log.txt
//   dmlfp summarize --log log.txt
//   dmlfp ingest    --log log.txt --out repo/          build an on-disk
//                                                      event repository
//   dmlfp verify    --repo repo/                       audit it
//   dmlfp compact   --repo repo/ --out packed/         rewrite it
//   dmlfp train     --log log.txt --from-week 0 --to-week 26 --out rules.txt
//   dmlfp predict   --log log.txt --rules rules.txt --from-week 26
//   dmlfp run       --log log.txt | --repo repo/  [--mode sliding|whole|static]
//                   [--training-weeks 26] [--retrain-weeks 4] [--window 300]
//                   [--no-reviser] [--resume-week N] [--warnings FILE]
//
// Subcommands compose through files: `generate` writes the raw log
// (text or binary), `ingest` preprocesses it once into a segmented
// on-disk repository that `run --repo` replays without re-parsing,
// `train` ships a rule set, `predict` consumes both — the offline
// rule-generation / online prediction split of paper §5.2.4.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/civil_time.hpp"
#include "common/failpoint.hpp"
#include "learners/rule.hpp"
#include "loggen/generator.hpp"
#include "logio/binary_format.hpp"
#include "logio/record_sink.hpp"
#include "logio/text_format.hpp"
#include "meta/meta_learner.hpp"
#include "meta/rule_io.hpp"
#include "online/config_file.hpp"
#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "online/markdown_report.hpp"
#include "online/report.hpp"
#include "predict/outcome_matcher.hpp"
#include "predict/reviser.hpp"
#include "preprocess/pipeline.hpp"
#include "storage/disk_repository.hpp"
#include "storage/log_writer.hpp"
#include "storage/maintenance.hpp"
#include "support/flags.hpp"

namespace {

using namespace dml;
using tools::Flags;

constexpr std::size_t kMinSegmentBytes =
    storage::kSegmentHeaderSize + storage::kEventRecordSize;

int usage() {
  std::fprintf(
      stderr,
      "usage: dmlfp <command> [flags]\n"
      "  generate  --machine anl|sdsc [--weeks 1..520] [--seed S>=0]\n"
      "            [--scale 0..100] [--format text|binary] --out FILE\n"
      "            [--chain-coverage 0..1] [--chain-gap 1..86400 s]\n"
      "            [--chain-hop 0..1] [--chain-final-lead 1..86400 s]\n"
      "            write a simulated log; signature families injected:\n"
      "              precursor  unordered precursor sets within one\n"
      "                         prediction window (always on)\n"
      "              decoy      coincidental pairs with bad false-alarm\n"
      "                         rates (always on)\n"
      "              chain      ordered multi-stage cascades whose\n"
      "                         inter-stage gaps (~ --chain-gap, default\n"
      "                         90 s) can exceed the prediction window;\n"
      "                         off unless --chain-coverage > 0\n"
      "  summarize --log FILE                      Tables 2/4-style summary\n"
      "  ingest    --log FILE --out DIR [--segment-bytes 56..2^30]\n"
      "            [--sync-every N>=0] [--threshold 0..604800]  preprocess a\n"
      "            raw log into a segmented on-disk event repository\n"
      "            (refuses success unless it reads back clean)\n"
      "  verify    --repo DIR                      full-scan audit of a\n"
      "            repository (CRCs, time order, sidecar indexes)\n"
      "  compact   --repo DIR --out DIR [--segment-bytes 56..2^30]\n"
      "            rewrite into full segments with fresh indexes\n"
      "  train     --log FILE [--from-week 0..520] [--to-week 0..520]\n"
      "            [--window 1..604800] [--no-reviser] [--correlation]\n"
      "            --out RULES  mine + revise a rule set (--correlation\n"
      "            adds the event-correlation chain learner)\n"
      "  predict   --log FILE --rules RULES [--from-week 0..520]\n"
      "            [--to-week 0..520] [--window 1..604800]  replay + evaluate\n"
      "  run       --log FILE | --repo DIR [--config FILE]\n"
      "            [--mode sliding|whole|static]\n"
      "            [--training-weeks 1..520] [--retrain-weeks 1..520]\n"
      "            [--window 1..604800] [--no-reviser] [--report FILE]\n"
      "            full dynamic driver; an engine flag takes the values of\n"
      "            its --config key (see config-template)\n"
      "            [--correlation | --no-correlation]  enable/disable the\n"
      "            correlation-chain learner (overrides --config)\n"
      "            [--correlation-window 1..86400]  graph adjacency window\n"
      "            [--correlation-min-edge 0..1]  min per-edge confidence\n"
      "            [--threads 1..1024]  N-shard concurrent serving replay\n"
      "            (no --report: that needs the --threads 1 interval table)\n"
      "            [--resume-week 0..520]  restart: rebuild training state\n"
      "            from the repository, serve only from that week on\n"
      "            [--warnings FILE]  dump the warning stream (one per\n"
      "            line) for byte-identity diffs across data planes\n"
      "            [--profile]  print per-stage wall/CPU time and\n"
      "            events/s (parse, preprocess, log I/O, retrain builds,\n"
      "            serving)\n"
      "            [--failpoint NAME=SPEC[,NAME=SPEC...]]  arm fault\n"
      "            injection; SPEC is throw|delay|drop|corrupt|off with\n"
      "            optional :p=PROB :ms=MILLIS :after=N :max=N\n"
      "            [--failpoint-seed S>=0]  RNG seed for random faults\n"
      "  config-template                           print a config file\n");
  return 2;
}

/// Process CPU clock (all threads), for the --profile table.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct StageTimes {
  double wall = 0.0;
  double cpu = 0.0;
  /// Records/events processed by the stage (events/s column); 0 = not
  /// counted.
  std::uint64_t units = 0;
};

/// One row of the --profile table; cpu < 0 means "not measured", units
/// of 0 means "no event rate for this stage".
void add_profile_row(online::TablePrinter& table, const char* stage,
                     double wall, double cpu, std::uint64_t units = 0) {
  table.add_row({stage, online::TablePrinter::fmt(wall, 4),
                 cpu < 0 ? "-" : online::TablePrinter::fmt(cpu, 4),
                 units > 0 && wall > 0
                     ? online::TablePrinter::fmt(
                           static_cast<double>(units) / wall, 0)
                     : "-"});
}

/// The --profile table of `dmlfp run`, one for both serving paths:
/// parse, preprocess, log I/O (mmap vs record-decode time, both zero for
/// in-memory replays), the retrain builds with their per-learner
/// decomposition, ensemble assembly and revision (which base learner the
/// retrain budget goes to, summed over every adopted snapshot), serving
/// and the replay total.  Serving is the driver's per-event observation
/// or the sum of every shard worker's busy time (which may exceed wall
/// time when shards overlap); pool builds overlap serving.
void print_run_profile(const StageTimes& parse, const StageTimes& preprocess,
                       const online::SessionStats& stats, double wall_seconds,
                       double cpu_seconds) {
  online::TablePrinter table({"stage", "wall-s", "cpu-s", "events/s"});
  add_profile_row(table, "parse", parse.wall, parse.cpu, parse.units);
  add_profile_row(table, "preprocess", preprocess.wall, preprocess.cpu,
                  preprocess.units);
  const storage::IoStats& io = stats.log_io;
  add_profile_row(table, "log-mmap", io.map_seconds, -1.0);
  add_profile_row(table, "log-read", io.read_seconds, -1.0);
  add_profile_row(table, "retrain-builds", stats.retrain_build_seconds(),
                  -1.0);
  const meta::TrainTimes& t = stats.retrain_train_times;
  add_profile_row(table, "  association", t.association_seconds, -1.0);
  add_profile_row(table, "  correlation", t.correlation_seconds, -1.0);
  add_profile_row(table, "  statistical", t.statistical_seconds, -1.0);
  add_profile_row(table, "  distribution", t.distribution_seconds, -1.0);
  add_profile_row(table, "  ensemble", t.ensemble_seconds, -1.0);
  add_profile_row(table, "  revision", stats.retrain_revise_seconds, -1.0);
  add_profile_row(table, "serving", stats.serving_seconds, -1.0,
                  stats.events_after_filtering);
  add_profile_row(table, "replay-total", wall_seconds, cpu_seconds,
                  stats.records_consumed);
  table.print(std::cout);
  if (io.bytes_read == 0 && io.segments_opened == 0) return;
  std::printf("log-io: %.1f MB read, %llu segment open(s)\n",
              static_cast<double>(io.bytes_read) / (1 << 20),
              static_cast<unsigned long long>(io.segments_opened));
}

/// Raw-record source over either log format, detected from the stream
/// magic ("DMLRAW1\0" = binary, anything else = text).
class AnyRecordReader {
 public:
  AnyRecordReader(std::istream& in, logio::RecordReader::OnError on_error) {
    char magic[sizeof logio::kBinaryLogMagic] = {};
    in.read(magic, sizeof magic);
    const bool binary =
        in.gcount() == static_cast<std::streamsize>(sizeof magic) &&
        std::memcmp(magic, logio::kBinaryLogMagic, sizeof magic) == 0;
    in.clear();
    in.seekg(0);
    if (binary) {
      binary_.emplace(in, on_error);
    } else {
      text_.emplace(in, on_error);
    }
  }

  const std::string& machine() const {
    return binary_ ? binary_->machine() : text_->machine();
  }
  std::optional<bgl::RasRecord> next() {
    return binary_ ? binary_->next() : text_->next();
  }
  const logio::ReadStats& read_stats() const {
    return binary_ ? binary_->read_stats() : text_->read_stats();
  }

 private:
  std::optional<logio::RecordReader> text_;
  std::optional<logio::BinaryRecordReader> binary_;
};

/// Lenient-read accounting: what was skipped and why (bounded list).
void report_skipped(const logio::ReadStats& read_stats,
                    const std::string& path) {
  if (read_stats.skipped == 0) return;
  std::fprintf(stderr,
               "dmlfp: skipped %llu of %llu malformed record(s) in %s\n",
               static_cast<unsigned long long>(read_stats.skipped),
               static_cast<unsigned long long>(read_stats.lines),
               path.c_str());
  for (const auto& diagnostic : read_stats.diagnostics) {
    std::fprintf(stderr, "dmlfp:   record %llu: %s\n",
                 static_cast<unsigned long long>(diagnostic.line),
                 diagnostic.reason.c_str());
  }
  if (read_stats.skipped > read_stats.diagnostics.size()) {
    std::fprintf(stderr, "dmlfp:   ... and %llu more\n",
                 static_cast<unsigned long long>(
                     read_stats.skipped - read_stats.diagnostics.size()));
  }
}

std::optional<logio::EventStore> load_events(const std::string& path,
                                             DurationSec threshold,
                                             StageTimes* parse_times = nullptr,
                                             StageTimes* preprocess_times =
                                                 nullptr) {
  using Clock = std::chrono::steady_clock;
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "dmlfp: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  preprocess::PreprocessPipeline pipeline(threshold);
  // Lenient mode: a malformed record is counted and skipped (with a
  // bounded diagnostic list), not fatal — a real log tail may be torn.
  AnyRecordReader reader(file, logio::RecordReader::OnError::kSkip);
  if (parse_times != nullptr && preprocess_times != nullptr) {
    // Profiled load: parse (bytes -> records) and preprocess (categorize
    // + compress) are interleaved per record, so each call is clocked.
    for (;;) {
      auto wall0 = Clock::now();
      auto cpu0 = process_cpu_seconds();
      auto record = reader.next();
      parse_times->wall +=
          std::chrono::duration<double>(Clock::now() - wall0).count();
      parse_times->cpu += process_cpu_seconds() - cpu0;
      if (!record) break;
      ++parse_times->units;
      wall0 = Clock::now();
      cpu0 = process_cpu_seconds();
      pipeline.consume(*record);
      preprocess_times->wall +=
          std::chrono::duration<double>(Clock::now() - wall0).count();
      preprocess_times->cpu += process_cpu_seconds() - cpu0;
      ++preprocess_times->units;
    }
  } else {
    while (auto record = reader.next()) pipeline.consume(*record);
  }
  report_skipped(reader.read_stats(), path);
  auto store = pipeline.take_store();
  store.set_load_stats(reader.read_stats());
  return store;
}

/// One warning per line in a fixed field order (issued_at, deadline,
/// category, midplane, rule id, source) so two runs can be diffed byte
/// for byte — the run --repo equivalence contract.
bool dump_warnings(const std::string& path,
                   const std::vector<predict::Warning>& warnings) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "dmlfp: cannot write %s\n", path.c_str());
    return false;
  }
  for (const auto& w : warnings) {
    out << w.issued_at << ' ' << w.deadline << ' ';
    if (w.category) {
      out << *w.category;
    } else {
      out << '-';
    }
    out << ' ';
    if (w.location) {
      out << w.location->packed();
    } else {
      out << '-';
    }
    out << ' ' << w.rule_id << ' ' << to_string(w.source) << '\n';
  }
  out.flush();
  if (!out) {
    std::fprintf(stderr, "dmlfp: write to %s failed\n", path.c_str());
    return false;
  }
  std::printf("wrote %zu warning(s) to %s\n", warnings.size(), path.c_str());
  return true;
}

/// The run's one-line degradation tally on stdout, when anything was
/// given up.
void print_degraded(const online::SessionStats& stats) {
  if (stats.records_rejected > 0 || stats.retrain_failures > 0 ||
      stats.shards_quarantined > 0) {
    std::printf(
        "degraded: %llu record(s) rejected, %llu retrain failure(s), "
        "%llu shard(s) quarantined\n",
        static_cast<unsigned long long>(stats.records_rejected),
        static_cast<unsigned long long>(stats.retrain_failures),
        static_cast<unsigned long long>(stats.shards_quarantined));
  }
}

/// Prints the post-run fault-injection accounting: what fired, and what
/// the run gave up (degradation incidents), on stderr so a piped report
/// stays clean.
void print_failpoint_summary(
    const std::vector<dml::online::DegradationEvent>& degradations) {
  for (const auto& incident : degradations) {
    std::fprintf(stderr, "dmlfp: degraded [%s] at t=%lld (count %zu): %s\n",
                 std::string(to_string(incident.kind)).c_str(),
                 static_cast<long long>(incident.at), incident.count,
                 incident.detail.c_str());
  }
  for (const auto& [name, stats] :
       common::FailpointRegistry::instance().all()) {
    if (stats.evaluations == 0 && stats.triggers == 0) continue;
    std::fprintf(stderr,
                 "dmlfp: failpoint %s: %llu evaluation(s), %llu trigger(s)\n",
                 name.c_str(),
                 static_cast<unsigned long long>(stats.evaluations),
                 static_cast<unsigned long long>(stats.triggers));
  }
}

int cmd_generate(const Flags& flags) {
  constexpr std::string_view kFlags[] = {
      "machine", "weeks", "scale", "chain-coverage", "chain-gap",
      "chain-final-lead", "chain-hop", "seed", "format", "out"};
  const char* const who = "dmlfp generate";
  if (!flags.all_known(who, {kFlags})) return 2;
  const std::string machine = flags.get_or("machine", "sdsc");
  auto profile = machine == "anl" ? loggen::MachineProfile::anl()
                                  : loggen::MachineProfile::sdsc();
  if (machine != "anl" && machine != "sdsc") {
    std::fprintf(stderr, "dmlfp: unknown machine '%s'\n", machine.c_str());
    return 2;
  }
  std::uint64_t seed = 1;
  if (!flags.read(who, "weeks", profile.weeks, 1, 520) ||
      !flags.read(who, "scale", profile.scale, 0, 100) ||
      !flags.read(who, "chain-coverage", profile.chain_coverage, 0, 1) ||
      !flags.read(who, "chain-gap", profile.chain_gap_mean, 1, 86400) ||
      !flags.read(who, "chain-final-lead", profile.chain_final_lead_max, 1,
                  86400) ||
      !flags.read(who, "chain-hop", profile.chain_hop_prob, 0, 1) ||
      !flags.read(who, "seed", seed, 0, UINT64_MAX)) {
    return 2;
  }
  const std::string format = flags.get_or("format", "text");
  if (format != "text" && format != "binary") {
    std::fprintf(stderr, "dmlfp generate: unknown format '%s'\n",
                 format.c_str());
    return 2;
  }
  const auto out_path = flags.get("out");
  if (!out_path) {
    std::fprintf(stderr, "dmlfp generate: --out is required\n");
    return 2;
  }
  std::ofstream out(*out_path,
                    format == "binary" ? std::ios::out | std::ios::binary
                                       : std::ios::out);
  if (!out) {
    std::fprintf(stderr, "dmlfp: cannot write %s\n", out_path->c_str());
    return 1;
  }
  std::uint64_t records = 0;
  double mb = 0.0;
  if (format == "binary") {
    logio::BinaryStreamSink sink(out, profile.machine.name);
    loggen::LogGenerator(profile, seed).generate(sink);
    records = sink.records_written();
    mb = static_cast<double>(sink.bytes_written()) / (1 << 20);
  } else {
    logio::StreamSink sink(out, profile.machine.name);
    logio::CountingSink counter;
    logio::TeeSink tee({&sink, &counter});
    loggen::LogGenerator(profile, seed).generate(tee);
    records = counter.total();
    mb = static_cast<double>(counter.bytes()) / (1 << 20);
  }
  out.flush();
  if (!out) {
    // A full disk surfaces here, not at open(): without this check the
    // tool would report success over a truncated log.
    std::fprintf(stderr, "dmlfp: write to %s failed\n", out_path->c_str());
    return 1;
  }
  std::printf("wrote %llu records (%.1f MB) to %s\n",
              static_cast<unsigned long long>(records), mb,
              out_path->c_str());
  return 0;
}

int cmd_summarize(const Flags& flags) {
  constexpr std::string_view kFlags[] = {"log"};
  if (!flags.all_known("dmlfp summarize", {kFlags})) return 2;
  const auto log_path = flags.get("log");
  if (!log_path) {
    std::fprintf(stderr, "dmlfp summarize: --log is required\n");
    return 2;
  }
  std::ifstream file(*log_path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "dmlfp: cannot open %s\n", log_path->c_str());
    return 1;
  }
  preprocess::ThresholdSweep sweep({0, 10, 60, 120, 200, 300, 400});
  AnyRecordReader reader(file, logio::RecordReader::OnError::kThrow);
  const std::string machine = reader.machine();
  while (auto record = reader.next()) sweep.consume(*record);

  std::printf("machine: %s\n", machine.c_str());
  online::TablePrinter table(
      {"facility", "0s", "10s", "60s", "120s", "200s", "300s", "400s"});
  for (int f = 0; f < bgl::kNumFacilities; ++f) {
    std::vector<std::string> row = {
        std::string(to_string(static_cast<bgl::Facility>(f)))};
    for (std::size_t i = 0; i < sweep.thresholds().size(); ++i) {
      row.push_back(std::to_string(
          sweep.stats_at(i).unique_per_facility[static_cast<std::size_t>(f)]));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("iterative threshold choice: %lld s; compression at 300 s: "
              "%.2f%%\n",
              static_cast<long long>(sweep.select_threshold()),
              100.0 * sweep.stats_at(5).compression_rate());
  return 0;
}

/// `ingest`: raw log (text or binary) -> preprocess -> segmented on-disk
/// event repository.  Streaming end to end (bounded memory), and success
/// is gated on the written data reading back clean: the writer's close()
/// re-scans the active tail, then verify_repository() re-derives every
/// sealed segment's index and compares — a torn segment or unsynced
/// index fails the command.
int cmd_ingest(const Flags& flags) {
  constexpr std::string_view kFlags[] = {"log", "out", "segment-bytes",
                                         "sync-every", "threshold"};
  if (!flags.all_known("dmlfp ingest", {kFlags, tools::kFailpointFlags})) {
    return 2;
  }
  const auto log_path = flags.get("log");
  const auto out_dir = flags.get("out");
  if (!log_path || !out_dir) {
    std::fprintf(stderr, "dmlfp ingest: --log and --out are required\n");
    return 2;
  }
  storage::LogWriterOptions options;
  if (!flags.read("dmlfp ingest", "segment-bytes", options.segment_bytes,
                  kMinSegmentBytes, 1 << 30) ||
      !flags.read("dmlfp ingest", "sync-every", options.sync_every_records,
                  0, SIZE_MAX) ||
      !flags.read("dmlfp ingest", "threshold", options.threshold, 0,
                  7 * 86400) ||
      !tools::arm_failpoints(flags, "dmlfp ingest")) {
    return 2;
  }
  std::ifstream file(*log_path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "dmlfp: cannot open %s\n", log_path->c_str());
    return 1;
  }

  AnyRecordReader reader(file, logio::RecordReader::OnError::kSkip);
  preprocess::StreamingPipeline pipeline(options.threshold);
  std::uint64_t events_written = 0;
  std::uint64_t sealed_segments = 0;
  try {
    storage::LogWriter writer(*out_dir, reader.machine(), options);
    storage::CanonicalAppender appender(writer);
    while (auto record = reader.next()) {
      if (auto event = pipeline.push(*record)) {
        appender.append(*event);
        ++events_written;
      }
    }
    appender.flush();
    writer.close();
    sealed_segments = writer.sealed_segments();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmlfp ingest: %s\n", e.what());
    print_failpoint_summary({});
    return 1;
  }
  report_skipped(reader.read_stats(), *log_path);

  const auto verdict = storage::verify_repository(*out_dir);
  for (const auto& issue : verdict.issues) {
    std::fprintf(stderr, "dmlfp ingest: post-write check: %s\n",
                 issue.c_str());
  }
  if (!verdict.ok()) {
    print_failpoint_summary({});
    return 1;
  }
  std::printf(
      "ingested %llu event(s) from %llu record(s) into %s "
      "(%llu sealed segment(s) + active, %.1f MB, verified)\n",
      static_cast<unsigned long long>(events_written),
      static_cast<unsigned long long>(reader.read_stats().lines),
      out_dir->c_str(), static_cast<unsigned long long>(sealed_segments),
      static_cast<double>(verdict.bytes) / (1 << 20));
  print_failpoint_summary({});
  return 0;
}

int cmd_verify(const Flags& flags) {
  constexpr std::string_view kFlags[] = {"repo"};
  if (!flags.all_known("dmlfp verify", {kFlags})) return 2;
  const auto repo_path = flags.get("repo");
  if (!repo_path) {
    std::fprintf(stderr, "dmlfp verify: --repo is required\n");
    return 2;
  }
  const auto report = storage::verify_repository(*repo_path);
  std::printf("segments: %llu\n",
              static_cast<unsigned long long>(report.segments));
  std::printf("records: %llu (%llu fatal), %.1f MB\n",
              static_cast<unsigned long long>(report.records),
              static_cast<unsigned long long>(report.fatal_records),
              static_cast<double>(report.bytes) / (1 << 20));
  if (report.records > 0) {
    std::printf("time range: [%lld, %lld]\n",
                static_cast<long long>(report.first_time),
                static_cast<long long>(report.last_time));
  }
  if (report.active_torn_bytes > 0) {
    std::printf("active tail: %llu torn byte(s) (recoverable on reopen)\n",
                static_cast<unsigned long long>(report.active_torn_bytes));
  }
  for (const auto& issue : report.issues) {
    std::fprintf(stderr, "dmlfp verify: %s\n", issue.c_str());
  }
  std::printf("%s\n", report.ok() ? "ok" : "FAILED");
  return report.ok() ? 0 : 1;
}

int cmd_compact(const Flags& flags) {
  constexpr std::string_view kFlags[] = {"repo", "out", "segment-bytes"};
  if (!flags.all_known("dmlfp compact", {kFlags})) return 2;
  const auto repo_path = flags.get("repo");
  const auto out_dir = flags.get("out");
  if (!repo_path || !out_dir) {
    std::fprintf(stderr, "dmlfp compact: --repo and --out are required\n");
    return 2;
  }
  storage::LogWriterOptions options;
  if (!flags.read("dmlfp compact", "segment-bytes", options.segment_bytes,
                  kMinSegmentBytes, 1 << 30)) {
    return 2;
  }
  storage::CompactStats stats;
  try {
    stats = storage::compact_repository(*repo_path, *out_dir, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmlfp compact: %s\n", e.what());
    return 1;
  }
  std::printf("compacted %llu record(s): %llu -> %llu segment(s) at %s\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.segments_before),
              static_cast<unsigned long long>(stats.segments_after),
              out_dir->c_str());
  return 0;
}

int cmd_train(const Flags& flags) {
  constexpr std::string_view kFlags[] = {
      "log", "out", "window", "from-week", "to-week", "correlation",
      "no-reviser"};
  if (!flags.all_known("dmlfp train", {kFlags})) return 2;
  const auto log_path = flags.get("log");
  const auto out_path = flags.get("out");
  if (!log_path || !out_path) {
    std::fprintf(stderr, "dmlfp train: --log and --out are required\n");
    return 2;
  }
  online::DriverConfig config;
  long from_week = 0;
  long to_week = 0;
  if (tools::driver_config_from_flags(flags, "dmlfp train", config) != 0 ||
      !flags.read("dmlfp train", "from-week", from_week, 0, 520) ||
      !flags.read("dmlfp train", "to-week", to_week, 0, 520)) {
    return 2;
  }
  const DurationSec window = config.prediction_window;
  const auto store = load_events(*log_path, 300);
  if (!store) return 1;

  const TimeSec origin = store->first_time();
  const TimeSec from = origin + from_week * kSecondsPerWeek;
  const TimeSec to = flags.has("to-week")
                         ? origin + to_week * kSecondsPerWeek
                         : store->last_time() + 1;
  const auto training = store->between(from, to);
  if (training.empty()) {
    std::fprintf(stderr, "dmlfp train: empty training span\n");
    return 1;
  }

  meta::MetaLearner learner{config.learner};
  meta::TrainTimes times;
  auto repository = learner.learn(training, window, &times);
  std::size_t removed = 0;
  if (config.use_reviser) {
    removed = predict::revise(repository, training, window).removed;
  }
  std::ofstream out(*out_path);
  if (!out) {
    std::fprintf(stderr, "dmlfp: cannot write %s\n", out_path->c_str());
    return 1;
  }
  meta::write_rules(out, repository);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "dmlfp: write to %s failed\n", out_path->c_str());
    return 1;
  }
  std::printf(
      "trained on %zu events: %zu rules (%zu pruned by reviser) in %.2f s "
      "-> %s\n",
      training.size(), repository.size(), removed, times.total_seconds(),
      out_path->c_str());
  return 0;
}

int cmd_predict(const Flags& flags) {
  constexpr std::string_view kFlags[] = {"log", "rules", "window",
                                         "from-week", "to-week"};
  if (!flags.all_known("dmlfp predict", {kFlags})) return 2;
  const auto log_path = flags.get("log");
  const auto rules_path = flags.get("rules");
  if (!log_path || !rules_path) {
    std::fprintf(stderr, "dmlfp predict: --log and --rules are required\n");
    return 2;
  }
  online::DriverConfig config;
  long from_week = 0;
  long to_week = 0;
  if (tools::driver_config_from_flags(flags, "dmlfp predict", config) != 0 ||
      !flags.read("dmlfp predict", "from-week", from_week, 0, 520) ||
      !flags.read("dmlfp predict", "to-week", to_week, 0, 520)) {
    return 2;
  }
  const DurationSec window = config.prediction_window;
  const auto store = load_events(*log_path, 300);
  if (!store) return 1;
  std::ifstream rules_file(*rules_path);
  if (!rules_file) {
    std::fprintf(stderr, "dmlfp: cannot open %s\n", rules_path->c_str());
    return 1;
  }
  meta::KnowledgeRepository repository;
  try {
    repository = meta::read_rules(rules_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmlfp: %s\n", e.what());
    return 1;
  }

  const TimeSec origin = store->first_time();
  const TimeSec from = origin + from_week * kSecondsPerWeek;
  const TimeSec to = flags.has("to-week")
                         ? origin + to_week * kSecondsPerWeek
                         : store->last_time() + 1;

  predict::Predictor predictor(repository, window);
  for (const auto& event : store->between(from - window, from)) {
    predictor.observe(event);
  }
  const auto test_events = store->between(from, to);
  const auto warnings = predictor.run(test_events, window);
  const auto evaluation =
      predict::evaluate_predictions(test_events, warnings, window);
  std::printf("rules: %zu; events replayed: %zu; warnings: %zu\n",
              repository.size(), test_events.size(), warnings.size());
  std::printf("failures: %zu; precision %.3f; recall %.3f\n",
              evaluation.total_fatals, stats::precision(evaluation.overall),
              stats::recall(evaluation.overall));
  return 0;
}

/// `run --threads N`: replay the log through the sharded concurrent
/// serving core (retraining on the shared pool, events hash-partitioned
/// by midplane) instead of the interval-by-interval batch driver, then
/// score the merged warning stream over the post-training span.
int run_sharded(const online::DriverConfig& config,
                const storage::EventRepository& repo, long threads,
                bool profile, const StageTimes& parse_times,
                const StageTimes& preprocess_times,
                const std::optional<std::string>& warnings_path) {
  using Clock = std::chrono::steady_clock;
  const DurationSec initial_span =
      static_cast<DurationSec>(config.training_weeks) * kSecondsPerWeek;
  const storage::IoStats io_before = repo.io_stats();

  // The same mapping dmlfpd uses for its per-stream engines, so the
  // daemon's warning stream is comparable to this path by construction.
  const online::ShardedEngineConfig sharded =
      online::sharded_config_from_driver(config,
                                         static_cast<std::size_t>(threads));

  // --resume-week, the driver's rule: replay from the first event and
  // keep only the warnings issued from the first retrain boundary at or
  // after the requested week, so they are exactly the tail of an
  // uninterrupted run.
  const TimeSec origin = repo.first_time();
  const TimeSec serve_from = online::resume_boundary(config, origin);

  std::vector<predict::Warning> warnings;
  const auto wall_start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  online::ShardedEngine engine(sharded, [&](const predict::Warning& w) {
    if (w.issued_at >= serve_from) warnings.push_back(w);
  });
  {
    auto cursor = repo.scan(origin, repo.last_time() + 1);
    std::vector<bgl::Event> batch;
    while (true) {
      batch.clear();
      if (cursor->next(batch, storage::kDefaultScanBatch) == 0) break;
      engine.consume_batch(batch);
    }
  }
  auto stats = engine.finish();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  const double cpu_seconds = process_cpu_seconds() - cpu_start;
  stats.log_io = repo.io_stats() - io_before;
  if (profile) {
    print_run_profile(parse_times, preprocess_times, stats, wall_seconds,
                      cpu_seconds);
  }

  online::TablePrinter table({"shard", "events", "warnings", "busy-s",
                              "events/s"});
  for (const auto& report : engine.shard_reports()) {
    table.add_row(
        {std::to_string(report.index), std::to_string(report.events),
         std::to_string(report.warnings),
         online::TablePrinter::fmt(report.busy_seconds),
         report.busy_seconds > 0
             ? std::to_string(static_cast<long long>(
                   static_cast<double>(report.events) / report.busy_seconds))
             : "-"});
  }
  table.print(std::cout);

  // Score the stream the way the driver scores its intervals: everything
  // after the initial training span (or the resume point, whichever is
  // later), against the configured window.
  const TimeSec score_from = std::max(origin + initial_span, serve_from);
  const auto test_events =
      storage::materialize(repo, score_from, repo.last_time() + 1);
  std::vector<predict::Warning> scored;
  for (const auto& w : warnings) {
    if (w.issued_at >= score_from) scored.push_back(w);
  }
  const auto evaluation = predict::evaluate_predictions(
      test_events, scored, config.prediction_window);
  std::printf(
      "shards: %zu; retrainings: %llu; events: %llu; wall %.2f s "
      "(%.0f events/s)\n",
      engine.shard_count(),
      static_cast<unsigned long long>(stats.retrainings),
      static_cast<unsigned long long>(stats.events_after_filtering),
      wall_seconds,
      wall_seconds > 0
          ? static_cast<double>(stats.events_after_filtering) / wall_seconds
          : 0.0);
  std::printf("overall: precision %.3f, recall %.3f\n",
              stats::precision(evaluation.overall),
              stats::recall(evaluation.overall));
  print_degraded(stats);
  print_failpoint_summary(engine.degradation_log());
  if (warnings_path && !dump_warnings(*warnings_path, warnings)) return 1;
  return 0;
}

int cmd_run(const Flags& flags) {
  constexpr std::string_view kFlags[] = {
      "log", "repo", "resume-week", "threads", "warnings", "report", "profile"};
  if (!flags.all_known("dmlfp run", {kFlags, tools::kEngineFlags,
                                     tools::kFailpointFlags})) {
    return 2;
  }
  const auto log_path = flags.get("log");
  const auto repo_path = flags.get("repo");
  if (log_path.has_value() == repo_path.has_value()) {
    std::fprintf(stderr,
                 "dmlfp run: exactly one of --log or --repo is required\n");
    return 2;
  }
  online::DriverConfig config;
  if (const int status =
          tools::driver_config_from_flags(flags, "dmlfp run", config)) {
    return status;
  }
  long threads = 1;
  if (!flags.read("dmlfp run", "resume-week", config.resume_week, 0, 520) ||
      !flags.read("dmlfp run", "threads", threads, 1, 1024)) {
    return 2;
  }
  // The markdown report is built from the driver's interval table, which
  // the sharded replay does not produce.
  if (threads > 1 && flags.has("report")) {
    std::fprintf(stderr, "dmlfp run: --report needs --threads 1\n");
    return 2;
  }
  // Arm fault injection before touching the log: logio.parse applies to
  // loading as well as the run itself.
  if (!tools::arm_failpoints(flags, "dmlfp run")) return 2;
  const bool profile = flags.has("profile");
  StageTimes parse_times;
  StageTimes preprocess_times;
  std::optional<logio::EventStore> store;
  std::optional<storage::OnDiskRepository> disk;
  const storage::EventRepository* repo = nullptr;
  if (log_path) {
    store = profile
                ? load_events(*log_path, 300, &parse_times, &preprocess_times)
                : load_events(*log_path, 300);
    if (!store) return 1;
    repo = &*store;
  } else {
    try {
      disk.emplace(*repo_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dmlfp: %s\n", e.what());
      return 1;
    }
    const auto& info = disk->open_info();
    if (info.torn_bytes_ignored > 0 || info.indexes_rebuilt > 0) {
      std::fprintf(stderr,
                   "dmlfp: repository recovered at open: %llu torn byte(s) "
                   "ignored, %zu index(es) rebuilt\n",
                   static_cast<unsigned long long>(info.torn_bytes_ignored),
                   info.indexes_rebuilt);
    }
    std::printf("repository %s: machine %s, %zu event(s), %zu segment(s), "
                "threshold %lld s\n",
                repo_path->c_str(), disk->manifest().machine.c_str(),
                disk->size(), disk->segment_count(),
                static_cast<long long>(disk->manifest().threshold));
    repo = &*disk;
  }

  config.profile = profile;
  const auto warnings_path = flags.get("warnings");
  // A repository damaged after open (a segment record failing its CRC
  // mid-scan) throws out of either replay: a diagnostic, not an abort.
  if (threads > 1) {
    try {
      return run_sharded(config, *repo, threads, profile, parse_times,
                         preprocess_times, warnings_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dmlfp: %s\n", e.what());
      return 1;
    }
  }
  std::vector<predict::Warning> warning_log;
  if (warnings_path) {
    config.warning_observer = [&warning_log](const predict::Warning& w) {
      warning_log.push_back(w);
    };
  }

  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  online::DriverResult result;
  try {
    result = online::DynamicDriver(config).run(*repo);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmlfp: %s\n", e.what());
    return 1;
  }
  if (profile) {
    print_run_profile(
        parse_times, preprocess_times, result.engine_stats,
        std::chrono::duration<double>(Clock::now() - wall_start).count(),
        process_cpu_seconds() - cpu_start);
  }
  if (const auto report_path = flags.get("report")) {
    std::ofstream report(*report_path);
    if (!report) {
      std::fprintf(stderr, "dmlfp: cannot write %s\n", report_path->c_str());
      return 1;
    }
    online::write_markdown_report(report, config, result, *repo);
    report.flush();
    if (!report) {
      std::fprintf(stderr, "dmlfp: write to %s failed\n",
                   report_path->c_str());
      return 1;
    }
    std::printf("wrote report to %s\n", report_path->c_str());
  }
  online::TablePrinter table({"week", "precision", "recall", "rules",
                              "warnings", "failures"});
  for (const auto& interval : result.intervals) {
    table.add_row({std::to_string(interval.week),
                   online::TablePrinter::fmt(interval.precision()),
                   online::TablePrinter::fmt(interval.recall()),
                   std::to_string(interval.rules_active),
                   std::to_string(interval.warning_count),
                   std::to_string(interval.fatal_count)});
  }
  table.print(std::cout);
  std::printf("overall: precision %.3f, recall %.3f\n",
              result.overall_precision(), result.overall_recall());
  print_degraded(result.engine_stats);
  print_failpoint_summary(result.degradations);
  if (warnings_path && !dump_warnings(*warnings_path, warning_log)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "dmlfp: %s\n", flags.error().c_str());
    return 2;
  }
  if (flags.has("help")) return usage();
  if (command == "generate") return cmd_generate(flags);
  if (command == "summarize") return cmd_summarize(flags);
  if (command == "ingest") return cmd_ingest(flags);
  if (command == "verify") return cmd_verify(flags);
  if (command == "compact") return cmd_compact(flags);
  if (command == "train") return cmd_train(flags);
  if (command == "predict") return cmd_predict(flags);
  if (command == "run") return cmd_run(flags);
  if (command == "config-template") {
    if (!flags.all_known("dmlfp config-template", {})) return 2;
    std::printf("%s", online::render_driver_config({}).c_str());
    return 0;
  }
  return usage();
}
