#pragma once

// Packet-flow workloads for the traffic simulation: TrafficMatrix places
// each verify::TrafficPattern's flows on a solved ring. Shared by
// bench/traffic_recovery and tests/test_traffic, and pinned by
// tests/test_workload.cpp.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "debruijn/cycle.hpp"
#include "sim/traffic.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/word.hpp"

namespace dbr::bench {

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
