// Small shared helpers of the end-to-end benchmark: clocks, percentile
// summaries, peak RSS, and the metric record ct_e2e prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Interquartile mean: the mean of the middle half of `v` (all of it when
/// shorter than four). Aggregates per-window values: it averages over the
/// machine's speed swings like a mean, and drops the outlying quarter on
/// each side like a median.
inline double central(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// A timing reported as median and p99 with its sample count.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  s.p50 = percentile(v, 0.50);
  s.p99 = percentile(v, 0.99);
  return s;
}

/// Peak resident set of this process (VmHWM) in MiB, 0 if unavailable.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// splitmix64 step: derives independent sub-seeds from the run seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
