// rgb_perf: one run of one workload of the RGB benchmark.
//
//   rgb_perf --workload <join_surge|steady_probe|churn_mobile|groups_serving>
//            --seed <n> --seconds <s> --trace <0|1> [--smoke]
//            [--trace-dir <dir>]
//
// Prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// them to <dir>/<workload>-seed<n>.json when --trace-dir is given).
// Details of failed checks go to standard error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string metrics_json(const perfbench::Result& r) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << '}';
  return os.str();
}

int usage(const char* why) {
  std::cerr << "rgb_perf: " << why << "\n"
            << "usage: rgb_perf --workload <join_surge|steady_probe|"
               "churn_mobile|groups_serving> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-dir" && has_value) {
      options.trace_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::known_workload(options.workload)) {
    return usage("unknown workload");
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  const perfbench::Result result = perfbench::run_workload(options);
  for (const std::string& problem : result.problems) {
    std::cerr << "check: " << problem << "\n";
  }
  const std::string metrics = metrics_json(result);
  if (options.trace && !options.trace_dir.empty()) {
    std::ofstream out(options.trace_dir + "/" + options.workload + "-seed" +
                      std::to_string(options.seed) + ".json");
    out << "{\"workload\": \"" << options.workload
        << "\", \"seed\": " << options.seed << ", \"metrics\": " << metrics
        << "}\n";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return 0;
}
