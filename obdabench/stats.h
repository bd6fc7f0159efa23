#ifndef OBDABENCH_STATS_H_
#define OBDABENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.h"

namespace obdabench {

/// Nearest-rank percentile: the sample of 1-based rank ceil(q * n), with
/// q given in permille (500 = median, 990 = p99). 0 for no samples.
double Percentile(std::vector<double> samples, int q_permille);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 500);
}

/// Samples strictly above the nearest-rank q percentile of n samples.
std::size_t SamplesBeyond(std::size_t n, int q_permille);
/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least ten
/// samples beyond it, in permille; 0 when even p50 lacks them. A tail
/// metric is reported only at a percentile its sample count supports.
int SupportedTail(std::size_t n);

/// A uniform random sample of at most `capacity` of the values added
/// (reservoir sampling), so that a run's latency samples take the same
/// memory however many ops it makes. The storage is allocated and
/// touched up front. Not thread-safe.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void Add(double value);
  /// The kept values: every value added while fewer than `capacity` were.
  const std::vector<double>& values() const { return values_; }
  /// How many values were added.
  std::size_t seen() const { return seen_; }

 private:
  std::vector<double> values_;
  std::size_t capacity_;
  std::size_t seen_ = 0;
  obda::base::Rng rng_;
};

}  // namespace obdabench

#endif  // OBDABENCH_STATS_H_
