#pragma once
// Latency summary over raw per-operation samples (never histogram
// buckets): the median, the highest percentile that still has at least
// ten samples beyond it, and the sample count.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace flowbench {

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  /// The 11th-largest sample: exactly ten samples lie above it. Only
  /// meaningful when tail_valid (count >= 11).
  double tail = 0.0;
  /// The percentile `tail` sits at, 100 * (count - 10) / count.
  double tail_pct = 0.0;
  bool tail_valid = false;
};

inline constexpr std::size_t kTailBeyond = 10;

inline LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.p50 = n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n > kTailBeyond) {
    s.tail = samples[n - kTailBeyond - 1];
    s.tail_pct = 100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
    s.tail_valid = true;
  }
  return s;
}

}  // namespace flowbench
