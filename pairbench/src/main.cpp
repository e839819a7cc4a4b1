// pairbench — one workload of the repository benchmark per invocation.
//
//   pairbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-prefix PATH] [--source ID]
//
// Prints a report, then as its last stdout line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics the benchmark computes itself
// with --trace 1 (run.py adds the ones derived from the trace files).
// Usually launched through run.py, which builds it first.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

constexpr std::string_view kWorkloads[] = {"batch-compute", "batch-shipping",
                                           "batch-outofcore", "serve-churn"};

// Each of these re-routes every run through another backend, plane or
// budget than the workload pins; the budget one forces spilling under
// every workload.
constexpr const char* kForeignEnv[] = {
    "PAIRMR_TEST_BACKEND", "PAIRMR_SHUFFLE_PLANE", "PAIRMR_TEST_MEMORY_BUDGET"};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int usage(const std::string& why) {
  std::cerr << "pairbench: " << why
            << "\nusage: pairbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--trace-prefix PATH] [--source ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pairbench::Config config;
  std::string source = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (!has_value) {
      return usage(std::string(arg) + " needs a value");
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      config.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--trace-prefix") {
      config.trace_prefix = argv[++i];
    } else if (arg == "--source") {
      source = argv[++i];
    } else {
      return usage(std::string("unknown argument ") + argv[i]);
    }
  }
  bool known = false;
  for (const std::string_view w : kWorkloads) known = known || w == config.workload;
  if (!known) return usage("unknown workload " + config.workload);
  if (config.trace && config.trace_prefix.empty()) {
    return usage("--trace 1 needs --trace-prefix");
  }
  for (const char* name : kForeignEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "pairbench: refusing to run with " << name
                << " set; the workloads pin backend, plane and budget\n";
      return 2;
    }
  }

  std::cout << "pairbench workload=" << config.workload
            << " seed=" << config.seed << " seconds=" << config.seconds
            << " trace=" << (config.trace ? 1 : 0)
            << (config.tiny ? " size=tiny" : "") << "\n"
            << "provenance {\"source\": \"" << source
            << "\", \"build_type\": \"" << PAIRBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << kCompiler
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << "}\n";

  try {
    pairbench::Report report;
    const pairbench::Outcome outcome =
        config.workload == "serve-churn"
            ? pairbench::run_serve(config, report)
            : pairbench::run_batch(config, report);
    report.print_result(outcome);
  } catch (const std::exception& e) {
    std::cerr << "pairbench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
