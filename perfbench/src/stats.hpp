// Sample summaries: percentiles with a tail-sample guard, and medians.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples beyond a percentile that a reported tail must have.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 100].
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted,
                                              double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Samples strictly after the nearest-rank p-th percentile position.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto r = static_cast<std::size_t>(rank);
  return r >= n ? 0 : n - r;
}

/// A latency distribution reduced to what the benchmark reports.
struct Percentiles {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  /// True iff p99 has at least kMinTailSamples samples beyond it.
  bool p99_valid = false;
};

[[nodiscard]] inline Percentiles summarize(std::vector<double> samples) {
  Percentiles out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = percentile_sorted(samples, 50);
  out.p99 = percentile_sorted(samples, 99);
  out.p99_valid = samples_beyond(samples.size(), 99) >= kMinTailSamples;
  return out;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
