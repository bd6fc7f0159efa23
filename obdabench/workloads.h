#ifndef OBDABENCH_WORKLOADS_H_
#define OBDABENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace obdabench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  /// false: the timed run, reporting the end-to-end metrics. true: the
  /// timed run followed by the layer-decomposed replay, reporting the
  /// per-layer metrics.
  bool trace = false;
  /// Scratch directory inside the checkout (store file, span dump).
  std::string workdir = ".";
  /// Recorded answer digests ("" = do not check).
  std::string digests_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Everything that makes the run incorrect: failed ops, oracle
  /// mismatches, unmet sample counts, digest disagreements.
  std::vector<std::string> problems;
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// "prepare_cold", "serve_mix", "mutation_churn".
bool KnownWorkload(const std::string& name);
Outcome RunWorkload(const Options& options);

}  // namespace obdabench

#endif  // OBDABENCH_WORKLOADS_H_
