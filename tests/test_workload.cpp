#include "workload.hpp"  // bench/ include dir (see CMakeLists tests loop)

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "util/word.hpp"
#include "verify/scenario.hpp"

// Direct coverage for the bench-only workload header: the Zipf sampler's
// skew shape, request-stream determinism, and the TrafficMatrix flow shapes
// the traffic simulation injects. These generators feed CI gates
// (service-throughput and traffic smoke jobs), so their behavior is pinned
// here rather than only observed through bench output.

namespace dbr::bench {
namespace {

using verify::TrafficPattern;

bool same_request(const service::EmbedRequest& a,
                  const service::EmbedRequest& b) {
  return a.base == b.base && a.n == b.n && a.fault_kind == b.fault_kind &&
         a.strategy == b.strategy && a.faults == b.faults &&
         a.edge_faults == b.edge_faults;
}

// --- ZipfSampler ---

TEST(Workload, ZipfSkewConcentratesOnLowRanks) {
  constexpr std::size_t kRanks = 16;
  constexpr std::size_t kDraws = 20000;
  const auto head_share = [](double s) {
    ZipfSampler zipf(kRanks, s);
    Rng rng(7);
    std::size_t head = 0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      if (zipf(rng) == 0) ++head;
    }
    return static_cast<double>(head) / kDraws;
  };
  const double uniform = head_share(0.0);
  const double skewed = head_share(1.0);
  const double heavy = head_share(2.5);
  // s = 0 degenerates to uniform: rank 0 draws its fair 1/16 share.
  EXPECT_NEAR(uniform, 1.0 / kRanks, 0.02);
  // Rising s concentrates mass on the head monotonically.
  EXPECT_GT(skewed, uniform + 0.1);
  EXPECT_GT(heavy, skewed + 0.1);
  EXPECT_GT(heavy, 0.7);  // s = 2.5 over 16 ranks is head-dominated
}

TEST(Workload, ZipfDrawsStayInRange) {
  ZipfSampler zipf(5, 1.0);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf(rng), 5u);
}

// --- make_stream ---

TEST(Workload, StreamIsDeterministicForAFixedSeed) {
  Rng a(123), b(123);
  const auto sa = make_stream(a, 200, 16, 0.5, 1.0);
  const auto sb = make_stream(b, 200, 16, 0.5, 1.0);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(same_request(sa[i], sb[i])) << "stream diverged at " << i;
  }
}

TEST(Workload, FullRepeatFractionDrawsOnlyFromTheHotPool) {
  Rng rng(5);
  const std::size_t unique = 8;
  const auto stream = make_stream(rng, 300, unique, 1.0);
  // Every request must be one of the pool entries: at most `unique`
  // distinct (base, n, faults) signatures appear.
  std::set<std::vector<std::uint64_t>> signatures;
  for (const auto& req : stream) {
    std::vector<std::uint64_t> sig{req.base, req.n,
                                   static_cast<std::uint64_t>(req.fault_kind)};
    sig.insert(sig.end(), req.faults.begin(), req.faults.end());
    signatures.insert(sig);
  }
  EXPECT_LE(signatures.size(), unique);
}

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
