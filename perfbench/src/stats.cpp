#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

double Quartiles::spread() const {
  return median == 0.0 ? 0.0 : (q3 - q1) / median;
}

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double supported_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100).
    if (static_cast<double>(n) * (1.0 - p / 100.0) + 1e-9 >=
        static_cast<double>(min_beyond))
      best = p;
  }
  return best;
}

double windowed_percentile(const std::vector<double>& values, const std::vector<double>& at,
                           double span, std::size_t windows, double p) {
  std::vector<std::vector<double>> slices(windows);
  for (std::size_t i = 0; i < values.size() && i < at.size(); ++i) {
    if (span <= 0.0 || at[i] < 0.0) continue;
    const auto w = static_cast<std::size_t>(at[i] / span * static_cast<double>(windows));
    if (w < windows) slices[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& s : slices)
    if (s.size() >= 20) per_window.push_back(percentile(std::move(s), p));
  return per_window.empty() ? percentile(values, p) : median(per_window);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = percentile_sorted(values, 50.0);
  s.p99 = percentile_sorted(values, 99.0);
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  s.max = values.back();
  s.top_pct = supported_percentile(s.n);
  s.top_value = s.top_pct > 0.0 ? percentile_sorted(values, s.top_pct) : s.max;
  return s;
}

}  // namespace perfbench
