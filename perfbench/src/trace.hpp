#pragma once

// In-memory span recorder for the traced run: spans are kept in a vector,
// self times are derived from the parent links, and the whole set is written
// once, at the end, as Chrome trace-event JSON (chrome://tracing, Perfetto).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the index of the span that caused this one.
struct Span {
  std::string name;   ///< e.g. "net.rtt", "core.solve.ffc"
  std::string layer;  ///< "net", "service", "core", "verify"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into Tracer::spans(), -1 for a root
  std::uint32_t pid = 1;     ///< trace process: 1 = wire run, 2 = in-process probes
  std::uint32_t track = 0;   ///< trace thread (connection or probe lane)
  std::uint64_t request = 0;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals, each clipped to the parent. Indexed like `spans`.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per layer.
std::map<std::string, double> layer_self_ns(const std::vector<Span>& spans);

class Tracer {
 public:
  /// Records a span and returns its index (for children's `parent`).
  std::int64_t add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans whose `request` passes the sampling filter (every
  /// `keep_every`-th request, plus every span with request 0) as Chrome
  /// trace-event JSON; timestamps are relative to `origin_ns`. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path, std::int64_t origin_ns,
                    std::uint64_t keep_every) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
