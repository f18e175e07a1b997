#pragma once

// Metric bookkeeping and the hand-rolled JSON the benchmark emits: the
// one-line result on stdout and the per-run result file.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Ordered metric list plus free-form JSON sections for the result file.
class Report {
 public:
  void metric(std::string name, std::string unit, double value);
  /// A figure for the table and the result file only: measured every run
  /// but too host-sensitive to carry a regression bound, so it stays off
  /// the stdout result line.
  void detail(std::string name, std::string unit, double value);
  /// Records a timing sample under `name` for the result file (sample
  /// count, p50, p99, highest supported percentile).
  void timing(const std::string& name, const std::vector<double>& values_us);
  /// A raw JSON fragment under `key` in the result file.
  void section(const std::string& key, std::string json);

  /// The stdout result line.
  std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed) const;
  /// The full result file body.
  std::string result_file(bool correct, std::uint64_t attempted, std::uint64_t failed) const;
  /// Human-readable table of the metrics and timings.
  std::string table() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::pair<std::string, Summary>> timings_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// JSON number with every significant digit (non-finite values become 0).
std::string json_num(double v);
/// JSON string literal.
std::string json_str(const std::string& s);

}  // namespace perfbench
