#pragma once

// Percentile, quartile and sample-count math behind every perfbench figure.

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of an ascending sample by linear interpolation
/// between closest ranks (rank p/100 * (n-1)); 0 for an empty sample.
double percentile_sorted(std::span<const double> sorted, double p);

/// Percentile of an unsorted sample.
double percentile(std::vector<double> values, double p);

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (its default "exclusive" method), so the spreads printed here are the
/// ones a comparison of runs is judged by.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median; 0 when the median is 0.
  double spread() const;
};

/// Requires at least two values.
Quartiles quartiles(std::vector<double> values);

/// Middle value (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> values);

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that has
/// at least `min_beyond` of `n` samples beyond it; 0 when even the median
/// lacks them.
double supported_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Percentile `p` computed separately in each of `windows` equal slices of
/// [0, span) (by the matching `at` time of each value), then the median over
/// the slices that hold at least 20 values. One stall then moves one slice,
/// not the figure. Falls back to the plain percentile when no slice
/// qualifies.
double windowed_percentile(const std::vector<double>& values, const std::vector<double>& at,
                           double span, std::size_t windows, double p);

/// A timing sample condensed for reports: its size, median, p99, and the
/// highest percentile the sample supports.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double top_pct = 0.0;    ///< supported_percentile(n)
  double top_value = 0.0;  ///< the sample's value at top_pct
};

Summary summarize(std::vector<double> values);

}  // namespace perfbench
