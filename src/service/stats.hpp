#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbr::service {

/// An immutable sorted view over one batch of latency samples: the sort is
/// paid once at construction, so extracting a whole percentile ladder
/// (p50/p90/p99/...) costs one O(n log n) pass instead of one per rank.
/// Produced by LatencyRecorder::snapshot(); answers are bit-identical to
/// LatencyRecorder::percentile on the same samples.
class LatencySnapshot {
 public:
  /// Takes (and sorts) a copy of the samples.
  explicit LatencySnapshot(std::vector<double> samples);

  std::size_t count() const { return sorted_.size(); }
  /// Computed in recording order at construction, so it is bit-identical
  /// to LatencyRecorder::mean() on the same samples. 0 when empty.
  double mean() const { return mean_; }
  /// p in [0, 100]; nearest-rank on the presorted samples. 0 when empty.
  double percentile(double p) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

/// Latency samples in microseconds with percentile extraction. Not
/// thread-safe: one owner records into it (a bench loop, a session) —
/// per-owner isolation instead of a lock, so there is no capability to
/// annotate (docs/CONCURRENCY.md).
class LatencyRecorder {
 public:
  void record(double micros) { samples_.push_back(micros); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  /// p in [0, 100]; nearest-rank on the sorted samples. 0 when empty.
  /// Convenience for a single rank — it sorts per call; take a snapshot()
  /// when reading several percentiles of the same samples.
  double percentile(double p) const;
  /// The sorted view: sorts once, then every percentile is O(1).
  LatencySnapshot snapshot() const { return LatencySnapshot(samples_); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Engine-lifetime counters separating the two cache layers, so a workload's
/// wins are attributable: a *result* hit serves the finished answer; a
/// *context* hit still solves, but reuses the fault-independent per-(base, n)
/// precompute on the miss path. context_hits + context_misses covers exactly
/// the computed (non-result-hit) queries.
struct ServeStats {
  std::uint64_t queries = 0;
  std::uint64_t result_hits = 0;
  std::uint64_t context_hits = 0;
  std::uint64_t context_misses = 0;

  double result_hit_rate() const;
  /// Context reuse among computed queries.
  double context_reuse_rate() const;
};

}  // namespace dbr::service
