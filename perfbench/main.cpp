// aimes_perfbench: the system benchmark's one binary.
//
//   aimes_perfbench --workload paper_sweep --seed 3 --seconds 10 --trace 0 \
//       --aimesd PATH [--golden perfbench/golden.txt] [--out-dir .bench_out]
//   aimes_perfbench --record-golden perfbench/golden.txt
//
// Prints a context line (host, build, load shape, sample counts) and, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones from the traced decomposition. Exit code 0 only for a run
// that produced a result; a correctness failure is reported in the result
// ("correct": false) rather than in the exit code.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "perfbench.hpp"

namespace pb = aimes::perfbench;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const pb::Options& options, const pb::Result& result) {
  std::string context = "{\"context\": {";
  std::map<std::string, std::string> fields = result.context;
  fields["workload"] = "\"" + options.workload + "\"";
  fields["seed"] = std::to_string(options.seed);
  fields["seconds"] = std::to_string(options.seconds);
  fields["trace"] = options.trace ? "1" : "0";
  fields["nproc"] = std::to_string(std::thread::hardware_concurrency());
  fields["compiler"] = "\"" + json_escape(PERFBENCH_COMPILER) + "\"";
  fields["build_type"] = "\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  bool first = true;
  for (const auto& [key, value] : fields) {
    context += (first ? "\"" : ", \"") + key + "\": " + value;
    first = false;
  }
  std::printf("%s}}\n", context.c_str());

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.first);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.second + "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  int trace = 0;
  aimes::common::cli::Parser cli("aimes_perfbench");
  cli.string_option("--workload", options.workload,
                    "paper_sweep | campaign_backlog | grid | daemon_roundtrip", "NAME");
  cli.uint64_option("--seed", options.seed, "input seed");
  cli.double_option("--seconds", options.seconds, 0.1, 3600.0, "measured seconds", "S");
  cli.int_option("--trace", trace, 0, 1, "1 = traced per-layer run");
  cli.string_option("--out-dir", options.out_dir, "spans, journals, port files", "DIR");
  cli.string_option("--golden", options.golden_file, "golden digest table", "FILE");
  cli.string_option("--aimesd", options.aimesd, "aimesd binary (daemon_roundtrip)", "PATH");
  cli.string_option("--record-golden", options.record_golden,
                    "recompute the golden digests into FILE and exit", "FILE");
  auto parsed = cli.parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.error().c_str());
    return 2;
  }
  if (parsed->help) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  options.trace = trace == 1;
  aimes::bench::require_release_artifacts("aimes_perfbench");
  // A campaign trial logs hundreds of expected warnings (pilot fleets
  // replenished under backlog); writing them would make stderr throughput
  // part of the measurement. The messages are still built, as in any run.
  aimes::common::Log::set_level(aimes::common::LogLevel::kError);

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", options.out_dir.c_str());
    return 2;
  }

  if (!options.record_golden.empty()) {
    std::string out = "# Golden digests: <workload> <key> <hex digest>, one operation per line.\n";
    pb::record_paper_sweep(out);
    pb::record_campaign_backlog(out);
    pb::record_grid(out);
    pb::record_daemon_roundtrip(out);
    std::ofstream file(options.record_golden);
    file << out;
    return file ? 0 : 1;
  }

  pb::Result result;
  if (options.workload == "paper_sweep") {
    result = pb::run_paper_sweep(options);
  } else if (options.workload == "campaign_backlog") {
    result = pb::run_campaign_backlog(options);
  } else if (options.workload == "grid") {
    result = pb::run_grid(options);
  } else if (options.workload == "daemon_roundtrip") {
    result = pb::run_daemon_roundtrip(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  if (options.trace) {
    for (const auto& [name, unit] : pb::per_layer_metrics()) {
      if (result.metrics.count(name) == 0) result.metric(name, 0.0, unit);
    }
  }
  print_result(options, result);
  return 0;
}
