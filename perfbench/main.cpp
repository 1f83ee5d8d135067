// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <fig7_sweep|generate_1k|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--data-dir <dir>] [--out-dir <dir>]
//   perfbench --workload <w> --smoke            one op, every check, traced
//   perfbench --workload <w> --write-expected   lines for expected.txt
//
// Prints notes, then as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See README.md for the workloads and every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <fig7_sweep|generate_1k|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--write-expected] [--data-dir <dir>] "
               "[--out-dir <dir>]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.data_dir = "perfbench";
  config.out_dir = ".";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--write-expected") {
      config.write_expected = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--data-dir") {
      config.data_dir = argv[++i];
    } else if (arg == "--out-dir") {
      config.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.smoke) config.trace = true;
  if (!have_seed && !config.smoke && !config.write_expected) {
    return usage("--seed is required");
  }
  if (config.seconds < 1) return usage("--seconds must be at least 1");

  // These switches change the program being measured: search() re-reads
  // the first two on every call, and the third overrides thread counts.
  for (const char* var :
       {"CHOP_BOUND_PRUNING", "CHOP_SHARED_FRONTIER", "CHOP_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set; unset it to measure the default program\n";
      return 2;
    }
  }
  if (kSanitized || !kOptimized) {
    std::cerr << "perfbench: refusing to run a "
              << (kSanitized ? "sanitizer" : "unoptimized")
              << " build; build with CMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  std::cout << "perfbench workload=" << config.workload
            << " seed=" << config.seed << " seconds=" << config.seconds
            << " trace=" << (config.trace ? 1 : 0)
            << (config.smoke ? " smoke=1" : "")
            << " build=" << PERFBENCH_BUILD_TYPE << " sanitizers=off"
            << " nproc=" << std::thread::hardware_concurrency() << "\n";

  perfbench::Report report;
  try {
    if (config.workload == "fig7_sweep") {
      report = perfbench::run_fig7_sweep(config);
    } else if (config.workload == "generate_1k") {
      report = perfbench::run_generate_1k(config);
    } else if (config.workload == "serve_mixed") {
      report = perfbench::run_serve_mixed(config);
    } else {
      return usage(("unknown workload '" + config.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& note : report.notes) std::cout << note << "\n";
  if (config.write_expected) return 0;

  const perfbench::MetricList& names = config.trace
                                           ? perfbench::per_layer_metrics()
                                           : perfbench::end_to_end_metrics();
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = report.values.find(name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    metrics += (metrics.empty() ? "\"" : ", \"") + name +
               "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
               unit + "\"}";
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct || !config.smoke ? 0 : 1;
}
