#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(pct, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double supported_tail_pct(std::size_t n) {
  // Smallest n with n * (1 - pct / 100) >= 10, kept as integers so the
  // boundary is exact.
  struct Tail {
    double pct;
    std::size_t min_n;
  };
  for (const Tail t : {Tail{99.9, 10000}, Tail{99.0, 1000}, Tail{95.0, 200}, Tail{90.0, 100},
                       Tail{75.0, 40}}) {
    if (n >= t.min_n) return t.pct;
  }
  return 50.0;
}

Summary summarize(std::vector<double> samples, double want_tail_pct) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) / static_cast<double>(s.n);
  s.tail_pct = std::min(want_tail_pct, supported_tail_pct(s.n));
  s.tail = percentile_sorted(samples, s.tail_pct);
  return s;
}

double quantile(std::vector<double> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, pct);
}

}  // namespace perfbench
