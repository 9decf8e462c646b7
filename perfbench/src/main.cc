// perfbench: the end-to-end serving benchmark's program. run.py builds it
// and calls it once per run:
//
//   perfbench --workload <path_cold|od_hot_refresh|route_budget>
//             --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file>]
//   perfbench --host-ref
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), each with its unit. --host-ref instead prints one line of
// program-independent memory timings, a diagnostic of the host's speed.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

/// Fixed memory-bound reference work: a dependent pointer chase over a
/// 16 MiB random cycle (latency) and a streaming sum over 64 MiB
/// (bandwidth). It touches no library code, so a change in its timing
/// between runs is a change in the host, not in the program.
void HostReference() {
  constexpr size_t kChase = size_t{1} << 22;   // 4 Mi x 4 B
  constexpr size_t kStream = size_t{1} << 23;  // 8 Mi x 8 B
  std::vector<uint32_t> next(kChase);
  for (size_t i = 0; i < kChase; ++i) next[i] = static_cast<uint32_t>(i);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t i = kChase - 1; i > 0; --i) {  // Sattolo: one single cycle
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const size_t j = state % i;
    std::swap(next[i], next[j]);
  }
  uint32_t at = 0;
  const int64_t a = perfbench::NowNs();
  for (size_t i = 0; i < kChase; ++i) at = next[at];
  const int64_t b = perfbench::NowNs();

  std::vector<double> values(kStream, 1.0);
  double sum = 0.0;
  const int64_t c = perfbench::NowNs();
  for (int pass = 0; pass < 4; ++pass) {
    for (double v : values) sum += v;
  }
  const int64_t d = perfbench::NowNs();
  const double bytes = 4.0 * static_cast<double>(kStream * sizeof(double));
  std::printf("# host reference: chase %.2f ns/load, stream %.2f GB/s "
              "(check %u %.0f)\n",
              static_cast<double>(b - a) / static_cast<double>(kChase),
              bytes / static_cast<double>(d - c), at, sum);
}

void PrintJson(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--trace-out <file>]\n"
               "       perfbench --host-ref\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host-ref") {
      HostReference();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!perfbench::IsWorkload(options.workload) || !have_seed ||
      !(options.seconds > 0.0) || options.workdir.empty()) {
    return Usage();
  }
  try {
    const perfbench::RunResult result = perfbench::RunWorkload(options);
    std::fflush(stdout);
    PrintJson(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
