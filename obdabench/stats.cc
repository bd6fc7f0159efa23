#include "stats.h"

#include <algorithm>

namespace obdabench {

double Percentile(std::vector<double> samples, int q_permille) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = (static_cast<std::size_t>(q_permille) * n + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, int q_permille) {
  const std::size_t rank =
      (static_cast<std::size_t>(q_permille) * n + 999) / 1000;
  return n > rank ? n - rank : 0;
}

int SupportedTail(std::size_t n) {
  for (int q : {999, 990, 950, 900, 750, 500}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0;
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  // Touch the pages now, so that filling them later adds no RSS.
  values_.assign(capacity_, 0.0);
  values_.clear();
}

void Reservoir::Add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_.Below(seen_);
  if (slot < capacity_) values_[slot] = value;
}

}  // namespace obdabench
