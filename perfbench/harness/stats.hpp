#pragma once

/// Sample statistics the benchmark reports: medians and the tail rule of
/// the benchmark doc (the highest percentile, capped at p99, that still
/// has at least ten samples beyond it).

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile p in (0, 100] (0 when empty).
double percentile(std::vector<double> samples, double p);

/// A tail percentile and how it was chosen.
struct Tail {
  double value = 0.0;       ///< the sample at the chosen rank
  double percentile = 0.0;  ///< rank / n * 100
  std::size_t samples = 0;  ///< n
};

/// Nearest-rank percentile at the highest rank r <= ceil(cap/100 * n) that
/// leaves at least `beyond` samples above it (r <= n - beyond). Never
/// reports below the nearest-rank median: with fewer than 2 * beyond
/// samples the tail is the median. Empty input gives a zero Tail.
Tail tail_percentile(std::vector<double> samples, double cap = 99.0,
                     std::size_t beyond = 10);

}  // namespace perfbench
