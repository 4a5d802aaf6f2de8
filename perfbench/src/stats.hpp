#pragma once

// Percentiles and summaries over the benchmark's own raw samples. The
// program's LatencyHistogram has 12.5% buckets, which would hide a 10%
// change, so every latency the benchmark reports comes from here.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (pct in [0, 100]) of `sorted`, which
/// must be ascending. 0 for an empty sample.
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least ten samples beyond it, i.e. n * (1 - pct / 100) >= 10; 50 when
/// none has.
double supported_tail_pct(std::size_t n);

/// Median plus a tail percentile of one sample, with its sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double mean = 0.0;
  /// The tail percentile asked for when the sample supports it, else the
  /// highest supported one (see supported_tail_pct).
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Summarizes `samples` (any order), reporting the `want_tail_pct`
/// percentile as the tail when at least ten samples lie beyond it.
Summary summarize(std::vector<double> samples, double want_tail_pct = 99.0);

/// The `pct` percentile of `samples` (any order); 0 when empty.
double quantile(std::vector<double> samples, double pct);

/// `value(first, last)` for each consecutive slice of `per_slice` items out
/// of `n`. The remainder after the last full slice is left out; with fewer
/// than `per_slice` items, one slice holds all of them.
template <class F>
std::vector<double> slice_values(std::size_t n, std::size_t per_slice, const F& value) {
  std::vector<double> out;
  if (n < per_slice) {
    if (n > 0) out.push_back(value(std::size_t{0}, n));
    return out;
  }
  for (std::size_t a = 0; a + per_slice <= n; a += per_slice) out.push_back(value(a, a + per_slice));
  return out;
}

}  // namespace perfbench
