#include "workload.hpp"  // bench/ include dir (see CMakeLists tests loop)

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "util/word.hpp"
#include "verify/scenario.hpp"

// Direct coverage for the bench-only workload header: the TrafficMatrix
// flow shapes the traffic simulation injects. They feed the traffic smoke
// job's CI gate, so their behavior is pinned here rather than only observed
// through bench output.

namespace dbr::bench {
namespace {

using verify::TrafficPattern;

// --- TrafficMatrix ---

NodeCycle synthetic_ring(std::size_t k) {
  NodeCycle ring;
  ring.nodes.reserve(k);
  for (std::size_t i = 0; i < k; ++i) ring.nodes.push_back(i);
  return ring;
}

TEST(Workload, AllReduceCoversEveryRingMember) {
  const NodeCycle ring = synthetic_ring(40);
  Rng rng(3);
  const auto flows =
      TrafficMatrix{}.flows(ring, TrafficPattern::kRingAllReduce, rng);
  ASSERT_EQ(flows.size(), 40u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].src, ring.nodes[i]);
    EXPECT_EQ(flows[i].dst, ring.nodes[(i + 1) % 40]);  // ring successor
  }
}

TEST(Workload, TokenStreamsTraverseTheWholeRing) {
  const NodeCycle ring = synthetic_ring(30);
  Rng rng(3);
  const auto flows =
      TrafficMatrix{}.flows(ring, TrafficPattern::kTokenStream, rng);
  ASSERT_LE(flows.size(), 4u);
  ASSERT_FALSE(flows.empty());
  for (const auto& f : flows) {
    // Destination is the source's ring predecessor: k-1 forward hops.
    const auto src_pos = static_cast<std::size_t>(
        std::find(ring.nodes.begin(), ring.nodes.end(), f.src) -
        ring.nodes.begin());
    EXPECT_EQ(f.dst, ring.nodes[(src_pos + 30 - 1) % 30]);
  }
}

TEST(Workload, HotspotAndIncastFanIntoOneDestination) {
  const NodeCycle ring = synthetic_ring(64);
  Rng rng(3);
  const auto hotspot =
      TrafficMatrix{}.flows(ring, TrafficPattern::kHotspot, rng);
  ASSERT_EQ(hotspot.size(), 32u);
  std::set<NodeId> hot_srcs;
  for (const auto& f : hotspot) {
    EXPECT_EQ(f.dst, hotspot.front().dst);
    EXPECT_NE(f.src, f.dst);
    hot_srcs.insert(f.src);
  }
  EXPECT_EQ(hot_srcs.size(), hotspot.size());  // sources are distinct
  // Hotspot staggers starts; incast synchronizes them.
  EXPECT_NE(hotspot.front().start_round, hotspot.back().start_round);

  Rng rng2(3);
  const auto incast = TrafficMatrix{}.flows(ring, TrafficPattern::kIncast, rng2);
  ASSERT_EQ(incast.size(), 16u);
  for (const auto& f : incast) {
    EXPECT_EQ(f.dst, incast.front().dst);
    EXPECT_EQ(f.start_round, incast.front().start_round);
  }
}

TEST(Workload, TrafficMatrixIsDeterministicAndWellFormed) {
  const NodeCycle ring = synthetic_ring(50);
  for (const TrafficPattern pattern :
       {TrafficPattern::kRingAllReduce, TrafficPattern::kTokenStream,
        TrafficPattern::kHotspot, TrafficPattern::kIncast,
        TrafficPattern::kUniform}) {
    Rng a(77), b(77);
    const auto fa = TrafficMatrix{}.flows(ring, pattern, a);
    const auto fb = TrafficMatrix{}.flows(ring, pattern, b);
    ASSERT_EQ(fa.size(), fb.size()) << verify::to_string(pattern);
    ASSERT_FALSE(fa.empty()) << verify::to_string(pattern);
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].src, fb[i].src) << verify::to_string(pattern);
      EXPECT_EQ(fa[i].dst, fb[i].dst) << verify::to_string(pattern);
      EXPECT_EQ(fa[i].packets, fb[i].packets) << verify::to_string(pattern);
      EXPECT_EQ(fa[i].start_round, fb[i].start_round)
          << verify::to_string(pattern);
      EXPECT_NE(fa[i].src, fa[i].dst) << verify::to_string(pattern);
      // Every endpoint lies on the ring.
      EXPECT_TRUE(std::find(ring.nodes.begin(), ring.nodes.end(), fa[i].src) !=
                  ring.nodes.end());
      EXPECT_TRUE(std::find(ring.nodes.begin(), ring.nodes.end(), fa[i].dst) !=
                  ring.nodes.end());
    }
  }
  // A two-node ring still yields legal (src != dst) flows for every pattern.
  const NodeCycle tiny = synthetic_ring(2);
  for (const TrafficPattern pattern :
       {TrafficPattern::kRingAllReduce, TrafficPattern::kTokenStream,
        TrafficPattern::kHotspot, TrafficPattern::kIncast,
        TrafficPattern::kUniform}) {
    Rng rng(5);
    const auto flows = TrafficMatrix{}.flows(tiny, pattern, rng);
    for (const auto& f : flows) EXPECT_NE(f.src, f.dst);
  }
}

}  // namespace
}  // namespace dbr::bench
