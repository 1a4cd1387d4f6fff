#pragma once
/// \file common.hpp
/// \brief Small shared helpers of the benchmark: clocks, order statistics,
/// the peak resident set.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {

/// Monotonic seconds.
inline double now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; NaN
/// when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set of this process [MiB] (ru_maxrss is in KiB on Linux).
inline double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
