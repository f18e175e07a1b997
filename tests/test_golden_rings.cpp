#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "golden_rings.hpp"
#include "service/engine.hpp"
#include "util/rng.hpp"
#include "verify/scenario.hpp"

// Golden answers: every case below is served by an EmbedEngine with the
// result cache off, and its status, strategy, ring length, bounds and an
// FNV-1a hash of the ring words must equal the committed row of
// golden_rings.hpp. Unlike the differential suites (arena vs legacy solve,
// cached vs uncached engines), this pins the answers themselves, so a
// change to code both sides share — the window checks of debruijn/cycle,
// util/require, the context tables — cannot move a ring unnoticed.
//
// Regenerate the table (only when an answer is meant to change, and say why
// in CHANGES.md):
//   ./test_golden_rings --gtest_also_run_disabled_tests
//       --gtest_filter='GoldenRings.DISABLED_PrintTable' > table.txt
// (one command line, run from the build directory)
// then replace the kGoldenRings rows of tests/golden_rings.hpp with the
// lines of table.txt that start with "    {".

namespace dbr::test {
namespace {

using service::EmbedEngine;
using service::EmbedRequest;
using service::EmbedResult;
using service::EngineOptions;
using service::FaultKind;
using service::Strategy;

struct GoldenCase {
  std::string label;  // reproduction hint printed on mismatch
  EmbedRequest request;
};

constexpr std::uint64_t kSweepSeed = 20261018;
constexpr std::size_t kSweepPerStrategy = 40;
constexpr std::uint64_t kColdRingSeed = 61;
constexpr std::size_t kColdRingDraws = 8;
constexpr std::uint64_t kLargeFfcSeed = 4099;
constexpr std::uint64_t kWideBaseSeed = 8209;

// One fault set of a cold_ring (family, instance) slot, drawn exactly as
// perfbench's make_request draws it: 1-3 node faults for FFC; 1 edge fault
// (d <= 3) or 1-2 (d >= 4) for the edge and butterfly families; one router
// plus one link for mixed.
enum Family : int { kNodeFfc = 0, kEdge = 1, kButterfly = 2, kMixed = 3 };

EmbedRequest cold_ring_request(Rng& rng, Digit base, unsigned n, int family) {
  EmbedRequest req;
  req.base = base;
  req.n = n;
  const WordSpace ws(base, n);
  const std::uint64_t edge_budget = base <= 3 ? 1 : 2;
  switch (family) {
    case kNodeFfc:
      req.fault_kind = FaultKind::kNode;
      for (Word v : rng.sample_distinct(ws.size(), 1 + rng.below(3))) {
        req.faults.push_back(v);
      }
      break;
    case kEdge:
    case kButterfly:
      req.fault_kind = FaultKind::kEdge;
      if (family == kButterfly) req.strategy = Strategy::kButterfly;
      for (Word v : rng.sample_distinct(ws.edge_word_count(),
                                        1 + rng.below(edge_budget))) {
        req.faults.push_back(v);
      }
      break;
    default:
      req.fault_kind = FaultKind::kMixed;
      req.strategy = Strategy::kMixed;
      req.faults.push_back(rng.below(ws.size()));
      req.edge_faults.push_back(rng.below(ws.edge_word_count()));
      break;
  }
  return req;
}

/// Every golden case, in table order.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> out;
  // 1. The scenario generator's sweep, every strategy.
  for (Strategy s : {Strategy::kAuto, Strategy::kFfc, Strategy::kEdgeAuto,
                     Strategy::kEdgeScan, Strategy::kEdgePhi,
                     Strategy::kButterfly, Strategy::kMixed}) {
    for (const verify::Scenario& sc :
         verify::make_sweep(kSweepSeed, s, kSweepPerStrategy)) {
      out.push_back({sc.describe(), sc.request});
    }
  }
  // 2. The ten cold_ring (family, instance) slots, eight fault sets each.
  struct Slot {
    int family;
    Digit base;
    unsigned n;
  };
  const Slot slots[] = {
      {kNodeFfc, 2, 11}, {kNodeFfc, 2, 12}, {kNodeFfc, 3, 7},
      {kEdge, 3, 7},     {kEdge, 4, 6},     {kEdge, 5, 5},
      {kButterfly, 4, 5}, {kButterfly, 5, 4},
      {kMixed, 2, 10},   {kMixed, 3, 6},
  };
  for (std::size_t i = 0; i < std::size(slots); ++i) {
    Rng rng(kColdRingSeed + i);
    for (std::size_t k = 0; k < kColdRingDraws; ++k) {
      out.push_back({"(cold_ring slot " + std::to_string(i) + ", draw " +
                         std::to_string(k) + ")",
                     cold_ring_request(rng, slots[i].base, slots[i].n,
                                       slots[i].family)});
    }
  }
  // FFC on one instance with 0-3 node faults drawn from Rng(seed).
  const auto add_ffc_cases = [&out](std::uint64_t seed, Digit base,
                                    unsigned n) {
    Rng rng(seed);
    const WordSpace ws(base, n);
    for (std::uint64_t f = 0; f < 4; ++f) {
      EmbedRequest req;
      req.base = base;
      req.n = n;
      req.fault_kind = FaultKind::kNode;
      req.strategy = Strategy::kFfc;
      for (Word v : rng.sample_distinct(ws.size(), f)) req.faults.push_back(v);
      out.push_back({"(ffc base=" + std::to_string(base) + ", n=" +
                         std::to_string(n) + ", faults=" + std::to_string(f) +
                         ")",
                     req});
    }
  };
  // 3. FFC on the two 65,536-node instances.
  for (const auto& [base, n] : {std::pair<Digit, unsigned>{2, 16}, {4, 8}}) {
    add_ffc_cases(kLargeFfcSeed + base, base, n);
  }
  // 4. FFC at n <= 2 and at large bases, then one node plus one edge fault
  // (mixed) on two n = 2 shapes: the instances whose solve cost once grew
  // with d.
  for (const auto& [base, n] : {std::pair<Digit, unsigned>{5, 1}, {17, 1},
                                {8, 2}, {17, 2}, {32, 2}, {57, 2}, {100, 2},
                                {16, 3}, {31, 3}, {10, 4}, {13, 4}}) {
    add_ffc_cases(kWideBaseSeed + 1000 * n + base, base, n);
  }
  for (const Digit base : {17u, 32u}) {
    Rng rng(kWideBaseSeed + base);
    for (std::size_t k = 0; k < 4; ++k) {
      out.push_back({"(mixed base=" + std::to_string(base) +
                         ", n=2, draw " + std::to_string(k) + ")",
                     cold_ring_request(rng, base, 2, kMixed)});
    }
  }
  return out;
}

/// FNV-1a (64-bit) over the little-endian bytes of the ring words.
std::uint64_t ring_hash(const NodeCycle& ring) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (Word w : ring.nodes) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

GoldenRing summarize(const EmbedResult& r) {
  return {static_cast<std::uint8_t>(r.status),
          static_cast<std::uint8_t>(r.strategy_used),
          r.ring_length,
          r.lower_bound,
          r.upper_bound,
          ring_hash(r.ring)};
}

TEST(GoldenRings, EngineAnswersMatchTheCommittedTable) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenRings))
      << "the case list and tests/golden_rings.hpp disagree in length";
  EmbedEngine engine(EngineOptions{.enable_cache = false});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto resp = engine.query(cases[i].request);
    ASSERT_NE(resp.result, nullptr) << cases[i].label;
    const GoldenRing got = summarize(*resp.result);
    const GoldenRing& want = kGoldenRings[i];
    EXPECT_EQ(got.status, want.status) << "case " << i << ": " << cases[i].label;
    EXPECT_EQ(got.strategy_used, want.strategy_used)
        << "case " << i << ": " << cases[i].label;
    EXPECT_EQ(got.ring_length, want.ring_length)
        << "case " << i << ": " << cases[i].label;
    EXPECT_EQ(got.lower_bound, want.lower_bound)
        << "case " << i << ": " << cases[i].label;
    EXPECT_EQ(got.upper_bound, want.upper_bound)
        << "case " << i << ": " << cases[i].label;
    EXPECT_EQ(got.ring_hash, want.ring_hash)
        << "case " << i << ": " << cases[i].label;
  }
}

// Prints the kGoldenRings rows for the current build (see the header
// comment for the command).
TEST(GoldenRings, DISABLED_PrintTable) {
  EmbedEngine engine(EngineOptions{.enable_cache = false});
  for (const GoldenCase& c : golden_cases()) {
    const auto resp = engine.query(c.request);
    ASSERT_NE(resp.result, nullptr) << c.label;
    const GoldenRing g = summarize(*resp.result);
    std::printf("    {%u, %u, %llu, %llu, %llu, 0x%016llxull},  // %s\n",
                static_cast<unsigned>(g.status),
                static_cast<unsigned>(g.strategy_used),
                static_cast<unsigned long long>(g.ring_length),
                static_cast<unsigned long long>(g.lower_bound),
                static_cast<unsigned long long>(g.upper_bound),
                static_cast<unsigned long long>(g.ring_hash),
                c.label.substr(0, c.label.find(')') + 1).c_str());
  }
}

}  // namespace
}  // namespace dbr::test
