// The three workloads of the serving benchmark (see ../README.md for why
// each exists and what it measures). One call runs one workload end to end:
// input generation, repeated set-up, the measured phase, refresh, the
// untimed quality probes, and every output check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Run-private directory for model artifacts (removed by the caller).
  std::string workdir;
  /// Where traced mode writes its spans; empty writes none.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// False when any output check failed (details go to stderr).
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
};

bool IsWorkload(const std::string& name);

/// Runs one workload. Throws std::runtime_error when the program cannot be
/// set up at all (no result is printed then).
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench
