#pragma once

// The mixed embedding query workload introduced with the service engine
// bench (PR 1): a seeded stream of node-fault (FFC), edge-fault
// (psi-scan / phi-construction) and butterfly-lift scenarios, with a hot
// pool of repeated queries. Shared by service_throughput and
// verify_overhead so both measure the same traffic shape.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "service/types.hpp"
#include "sim/traffic.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/word.hpp"

namespace dbr::bench {

/// One random scenario; `variant` cycles through the three workload families.
/// WordSpace supplies the overflow-validated d^n / d^(n+1) sample spaces.
inline service::EmbedRequest random_scenario(Rng& rng, std::uint64_t variant) {
  service::EmbedRequest req;
  switch (variant % 3) {
    case 0: {  // node faults -> FFC
      static constexpr struct { dbr::Digit d; unsigned n; } kGraphs[] = {
          {2, 11}, {2, 12}, {3, 7}, {2, 13}};
      const auto& g = kGraphs[rng.below(std::size(kGraphs))];
      req.base = g.d;
      req.n = g.n;
      req.fault_kind = service::FaultKind::kNode;
      const std::uint64_t f = 1 + rng.below(3);
      for (std::uint64_t v : rng.sample_distinct(WordSpace(g.d, g.n).size(), f))
        req.faults.push_back(v);
      break;
    }
    case 1: {  // edge faults -> psi-scan / phi-construction
      static constexpr struct { dbr::Digit d; unsigned n; } kGraphs[] = {
          {3, 7}, {4, 6}, {5, 5}};
      const auto& g = kGraphs[rng.below(std::size(kGraphs))];
      req.base = g.d;
      req.n = g.n;
      req.fault_kind = service::FaultKind::kEdge;
      const std::uint64_t f = 1 + rng.below(2);
      for (std::uint64_t v :
           rng.sample_distinct(WordSpace(g.d, g.n).edge_word_count(), f))
        req.faults.push_back(v);
      break;
    }
    default: {  // butterfly lift (gcd(d, n) = 1)
      static constexpr struct { dbr::Digit d; unsigned n; } kGraphs[] = {
          {3, 7}, {4, 5}, {5, 4}};
      const auto& g = kGraphs[rng.below(std::size(kGraphs))];
      req.base = g.d;
      req.n = g.n;
      req.fault_kind = service::FaultKind::kEdge;
      req.strategy = service::Strategy::kButterfly;
      req.faults.push_back(rng.below(WordSpace(g.d, g.n).edge_word_count()));
      break;
    }
  }
  return req;
}

/// Zipf(s) sampler over ranks [0, n): rank k is drawn with probability
/// proportional to 1 / (k+1)^s. Precomputes the CDF once (the pool is
/// small), then samples by binary search — the standard hot-key model for
/// cache benchmarks: s ~ 1 concentrates most draws on a handful of ranks,
/// s = 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t operator()(Rng& rng) const {
    const double u =
        static_cast<double>(rng.below(1u << 30)) / static_cast<double>(1u << 30);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A request stream of length `requests`: with probability `repeat_fraction`
/// a draw from a hot pool of `unique` scenarios, otherwise a fresh one.
/// `zipf_s` > 0 skews pool draws Zipf(s) by rank (the hot-key regime:
/// rank 0 dominates); 0 keeps the uniform pool of the original workload.
inline std::vector<service::EmbedRequest> make_stream(Rng& rng,
                                                      std::size_t requests,
                                                      std::size_t unique,
                                                      double repeat_fraction,
                                                      double zipf_s = 0.0) {
  std::vector<service::EmbedRequest> pool;
  pool.reserve(unique);
  for (std::size_t i = 0; i < unique; ++i)
    pool.push_back(random_scenario(rng, i));
  const ZipfSampler zipf(pool.size(), zipf_s);

  std::vector<service::EmbedRequest> stream;
  stream.reserve(requests);
  std::uint64_t fresh_variant = unique;
  for (std::size_t i = 0; i < requests; ++i) {
    const bool repeat =
        static_cast<double>(rng.below(1u << 20)) / (1u << 20) < repeat_fraction;
    if (repeat && !pool.empty()) {
      const std::size_t rank =
          zipf_s > 0.0 ? zipf(rng) : static_cast<std::size_t>(rng.below(pool.size()));
      stream.push_back(pool[rank]);
    } else {
      stream.push_back(random_scenario(rng, fresh_variant++));
    }
  }
  return stream;
}

/// Synthesizes the packet flows of one verify::TrafficPattern against a
/// solved ring: every endpoint lies on the ring, so the fault-free warmup
/// routes everything and later drops are attributable to churn alone. Flow
/// fan-outs are bounded (hotspot 32 sources, incast 16, uniform 16) so the
/// generated horizons can drain the queues; ring-allreduce is deliberately
/// unbounded — one flow per ring member is its definition.
struct TrafficMatrix {
  std::uint64_t packets_per_flow = 32;  ///< stream length of each flow
  std::uint64_t start_round = 0;        ///< first injection round

  /// The pattern's flows over `ring`, seeded placement drawn from `rng`
  /// (deterministic for a fixed rng state). Requires a ring of >= 2 nodes.
  std::vector<sim::Flow> flows(const NodeCycle& ring,
                               verify::TrafficPattern pattern,
                               Rng& rng) const {
    const std::vector<Word>& nodes = ring.nodes;
    const std::size_t k = nodes.size();
    require(k >= 2, "traffic needs a ring of at least two nodes");
    std::vector<sim::Flow> out;
    const auto add = [&](std::size_t src_pos, std::size_t dst_pos,
                         std::uint64_t packets, std::uint64_t start,
                         std::uint32_t tag) {
      if (src_pos == dst_pos) return;  // degenerate on tiny rings
      out.push_back({nodes[src_pos], nodes[dst_pos], packets, start, tag});
    };
    // Spread positions: offset s of `count` lands 1 + s*(k-1)/count ring
    // hops past `anchor` — distinct for count <= k-1 and never the anchor.
    const auto spread = [&](std::size_t anchor, std::size_t s,
                            std::size_t count) {
      return (anchor + 1 + s * (k - 1) / count) % k;
    };
    switch (pattern) {
      case verify::TrafficPattern::kRingAllReduce:
        // The pipelined all-reduce of examples/ring_allreduce: every ring
        // member streams chunks to its ring successor.
        for (std::size_t i = 0; i < k; ++i) {
          add(i, (i + 1) % k, packets_per_flow, start_round,
              static_cast<std::uint32_t>(i));
        }
        break;
      case verify::TrafficPattern::kTokenStream: {
        // A few token streams each traverse the whole ring (destination is
        // the source's ring predecessor, k-1 hops away).
        const std::size_t tokens = std::min<std::size_t>(4, k - 1);
        for (std::size_t i = 0; i < tokens; ++i) {
          const std::size_t j = i * k / tokens;
          add(j, (j + k - 1) % k, packets_per_flow, start_round,
              static_cast<std::uint32_t>(i));
        }
        break;
      }
      case verify::TrafficPattern::kHotspot: {
        // Spread sources stream at one hot destination, starts staggered so
        // the contention near the hot node builds gradually.
        const std::size_t hot = rng.below(k);
        const std::size_t sources = std::min<std::size_t>(32, k - 1);
        for (std::size_t s = 0; s < sources; ++s) {
          add(spread(hot, s, sources), hot, packets_per_flow, start_round + s,
              static_cast<std::uint32_t>(s));
        }
        break;
      }
      case verify::TrafficPattern::kIncast: {
        // A synchronized burst fan-in: every source starts the same round,
        // so the shared ring segments ahead of the sink overflow first.
        const std::size_t sink = rng.below(k);
        const std::size_t fan = std::min<std::size_t>(16, k - 1);
        for (std::size_t s = 0; s < fan; ++s) {
          add(spread(sink, s, fan), sink, packets_per_flow, start_round,
              static_cast<std::uint32_t>(s));
        }
        break;
      }
      case verify::TrafficPattern::kUniform: {
        const std::size_t count = std::min<std::size_t>(16, k - 1);
        for (std::size_t c = 0; c < count; ++c) {
          const std::size_t src = rng.below(k);
          std::size_t dst = rng.below(k);
          if (dst == src) dst = (dst + 1) % k;
          add(src, dst, packets_per_flow, start_round,
              static_cast<std::uint32_t>(c));
        }
        break;
      }
    }
    return out;
  }
};

}  // namespace dbr::bench
