// The four workloads of the RGB benchmark and the result they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;      ///< small sizes: every check, in seconds
  std::string trace_dir;   ///< traced runs also write their numbers here
  Clock::time_point process_start = Clock::now();
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

[[nodiscard]] bool known_workload(const std::string& name);
[[nodiscard]] Result run_workload(const Options& options);

}  // namespace perfbench
