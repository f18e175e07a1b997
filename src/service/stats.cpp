#include "service/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dbr::service {

LatencySnapshot::LatencySnapshot(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  // Sum in recording order before sorting so mean() is bit-identical to
  // LatencyRecorder::mean() (floating-point addition is order-sensitive).
  if (!sorted_.empty()) {
    mean_ = std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
            static_cast<double>(sorted_.size());
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double LatencySnapshot::percentile(double p) const {
  if (sorted_.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: ceil(p/100 * N), 1-indexed.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted_.size())));
  return sorted_[rank == 0 ? 0 : rank - 1];
}

double LatencyRecorder::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double LatencyRecorder::percentile(double p) const {
  return snapshot().percentile(p);
}

double ServeStats::result_hit_rate() const {
  return queries == 0
             ? 0.0
             : static_cast<double>(result_hits) / static_cast<double>(queries);
}

double ServeStats::context_reuse_rate() const {
  const std::uint64_t computed = context_hits + context_misses;
  return computed == 0 ? 0.0
                       : static_cast<double>(context_hits) /
                             static_cast<double>(computed);
}

}  // namespace dbr::service
