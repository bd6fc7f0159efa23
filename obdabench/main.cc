// obdabench: runs one workload of the obdalib benchmark and prints every
// metric by name and unit; the last stdout line is the JSON result.
//
//   obdabench --workload prepare_cold|serve_mix|mutation_churn
//             --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--digests FILE]
//
// The exit status is 0 only for a correct run.
// --trace 0 reports the end-to-end metrics of the timed run; --trace 1
// runs the same timed phase, then the layer-decomposed replay of the same
// op scripts, and reports the per-layer metrics. README.md explains both.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "obdabench: %s\nusage: obdabench --workload "
               "prepare_cold|serve_mix|mutation_churn --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--digests FILE]\n",
               message);
  return 2;
}

bool ParseInt(const std::string& text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  obdabench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseInt(value, &number) && number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds" && ParseInt(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--digests") {
      options.digests_path = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !obdabench::KnownWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }

  const obdabench::Outcome outcome = obdabench::RunWorkload(options);
  for (const obdabench::Metric& m : outcome.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              outcome.correct() ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const obdabench::Metric& m = outcome.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  // An incorrect run (failed ops, oracle or digest disagreement, unmet
  // sample counts) also fails by exit status.
  return outcome.correct() ? 0 : 1;
}
