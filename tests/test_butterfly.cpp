#include <gtest/gtest.h>

#include <set>

#include "butterfly/butterfly.hpp"
#include "butterfly/lift.hpp"
#include "core/butterfly_embedding.hpp"
#include "core/disjoint_hc.hpp"
#include "cycle_corpus.hpp"
#include "debruijn/debruijn.hpp"
#include "graph/algorithms.hpp"
#include "nt/numtheory.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr {
namespace {

using core::psi;

TEST(Butterfly, StructureF23) {
  // Figure 3.4: F(2,3) has 3 * 8 = 24 nodes, each with out-degree 2.
  const ButterflyDigraph bf(2, 3);
  EXPECT_EQ(bf.num_nodes(), 24u);
  EXPECT_EQ(bf.num_edges(), 48u);
  const Digraph m = bf.materialize();
  for (auto deg : m.out_degrees()) EXPECT_EQ(deg, 2u);
  for (auto deg : m.in_degrees()) EXPECT_EQ(deg, 2u);
}

TEST(Butterfly, EdgesChangeOnlyTheLevelDigit) {
  const ButterflyDigraph bf(3, 4);
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId v = rng.below(bf.num_nodes());
    const unsigned k = bf.level_of(v);
    bf.for_each_successor(v, [&](NodeId w) {
      EXPECT_TRUE(bf.has_edge(v, w));
      EXPECT_EQ(bf.level_of(w), (k + 1) % 4);
      // Columns agree off digit k.
      const auto& ws = bf.columns();
      for (unsigned i = 0; i < 4; ++i) {
        if (i != k) {
          EXPECT_EQ(ws.digit(bf.column_of(v), i), ws.digit(bf.column_of(w), i));
        }
      }
    });
  }
}

TEST(Butterfly, EncodeDecodeRoundTrip) {
  const ButterflyDigraph bf(4, 3);
  for (NodeId v = 0; v < bf.num_nodes(); ++v) {
    EXPECT_EQ(bf.encode(bf.level_of(v), bf.column_of(v)), v);
  }
  EXPECT_THROW(bf.encode(3, 0), precondition_error);
  EXPECT_THROW(bf.encode(0, 64), precondition_error);
}

TEST(Butterfly, StronglyConnected) {
  const ButterflyDigraph bf(2, 3);
  const auto scc = strongly_connected_components(bf);
  EXPECT_EQ(scc.count, 1u);
}

TEST(PartitionMap, Lemma38EdgesProject) {
  // If x -> y in B(d,n) then S_x^i -> S_y^{i+1} in F(d,n) for every level i.
  const Digit d = 2;
  const unsigned n = 3;
  const ButterflyDigraph bf(d, n);
  const DeBruijnDigraph g(d, n);
  for (Word x = 0; x < g.num_nodes(); ++x) {
    for (Word y : g.successors(x)) {
      for (unsigned i = 0; i < n; ++i) {
        const NodeId u = butterfly::partition_node(bf, x, i);
        const NodeId v = butterfly::partition_node(bf, y, i + 1);
        EXPECT_TRUE(bf.has_edge(u, v))
            << "x=" << x << " y=" << y << " level " << i;
      }
    }
  }
}

TEST(PartitionMap, SetsPartitionTheButterfly) {
  // The d^n sets S_x of size n tile the n * d^n butterfly nodes (the
  // [ABR90] partition of Figure 3.5).
  const ButterflyDigraph bf(2, 3);
  std::set<NodeId> seen;
  for (Word x = 0; x < 8; ++x) {
    for (unsigned i = 0; i < 3; ++i) {
      EXPECT_TRUE(seen.insert(butterfly::partition_node(bf, x, i)).second);
    }
  }
  EXPECT_EQ(seen.size(), bf.num_nodes());
}

TEST(Lift, PaperExampleFourCycleBecomesTwelveCycle) {
  // Lemma 3.9 illustration: the 4-cycle (110, 100, 001, 011) in B(2,3)
  // lifts to a 12-cycle in F(2,3).
  const ButterflyDigraph bf(2, 3);
  const WordSpace ws(2, 3);
  NodeCycle c;
  for (auto digits : {std::vector<Digit>{1, 1, 0}, {1, 0, 0}, {0, 0, 1}, {0, 1, 1}}) {
    c.nodes.push_back(ws.from_digits(digits));
  }
  const auto lifted = butterfly::lift_cycle(bf, c);
  ASSERT_EQ(lifted.size(), 12u);  // LCM(4,3)
  EXPECT_TRUE(butterfly::is_butterfly_cycle(bf, lifted));
  // Spot-check the first three entries against the paper's listing:
  // (0,110), (1,010), (2,010).
  EXPECT_EQ(lifted[0], bf.encode(0, ws.from_digits(std::vector<Digit>{1, 1, 0})));
  EXPECT_EQ(lifted[1], bf.encode(1, ws.from_digits(std::vector<Digit>{0, 1, 0})));
  EXPECT_EQ(lifted[2], bf.encode(2, ws.from_digits(std::vector<Digit>{0, 1, 0})));
}

TEST(Lift, LengthIsLcm) {
  const ButterflyDigraph bf(3, 4);
  const WordSpace ws(3, 4);
  // A necklace of length 2 lifts to LCM(2,4) = 4; length 4 lifts to 4.
  NodeCycle two;
  two.nodes = {ws.from_digits(std::vector<Digit>{0, 1, 0, 1}),
               ws.from_digits(std::vector<Digit>{1, 0, 1, 0})};
  EXPECT_EQ(butterfly::lift_cycle(bf, two).size(), 4u);
  EXPECT_TRUE(butterfly::is_butterfly_cycle(bf, butterfly::lift_cycle(bf, two)));
}

TEST(Lift, PullBackInvertsLift) {
  const ButterflyDigraph bf(2, 3);
  const WordSpace ws(2, 3);
  const SymbolCycle hc{{0, 0, 0, 1, 0, 1, 1, 1}};  // De Bruijn sequence
  ASSERT_TRUE(is_hamiltonian(ws, hc));
  const NodeCycle nodes = to_node_cycle(ws, hc);
  const auto lifted = butterfly::lift_cycle(bf, nodes);
  const auto debruijn_edges = edge_words(ws, hc);
  const std::set<Word> edge_set(debruijn_edges.begin(), debruijn_edges.end());
  for (std::size_t i = 0; i < lifted.size(); ++i) {
    const Word w =
        butterfly::pull_back_edge(bf, lifted[i], lifted[(i + 1) % lifted.size()]);
    EXPECT_TRUE(edge_set.contains(w));
  }
}

TEST(Lift, MatchesThePartitionMapOnTheCorpus) {
  // lift_cycle overwrites one column digit per step; partition_node
  // rotates every lifted node from scratch and is the reference.
  std::size_t cycles = 0;
  test::for_each_corpus_cycle([&](const WordSpace& ws, const SymbolCycle& c) {
    if (nt::gcd(ws.radix(), ws.length()) != 1) return;
    const ButterflyDigraph bf(ws.radix(), ws.length());
    const NodeCycle nodes = to_node_cycle(ws, c);
    const std::vector<NodeId> lifted = butterfly::lift_cycle(bf, c);
    const std::uint64_t k = c.length();
    const unsigned n = ws.length();
    ASSERT_EQ(lifted.size(), nt::lcm(k, n));
    for (std::uint64_t i = 0; i < lifted.size(); ++i) {
      ASSERT_EQ(lifted[i], butterfly::partition_node(bf, nodes.nodes[i % k],
                                                     static_cast<unsigned>(i % n)))
          << "F(" << ws.radix() << "," << n << "), k=" << k << ", index " << i;
    }
    EXPECT_EQ(butterfly::lift_cycle(bf, nodes), lifted);
    ++cycles;
  });
  EXPECT_GT(cycles, 1000u);
}

TEST(Lift, RejectsInputsOutsideBdn) {
  const ButterflyDigraph bf(3, 4);
  const WordSpace& ws = bf.columns();
  EXPECT_THROW((void)butterfly::lift_cycle(bf, NodeCycle{}), precondition_error);
  EXPECT_THROW((void)butterfly::lift_cycle(bf, SymbolCycle{}), precondition_error);
  EXPECT_THROW((void)butterfly::lift_cycle(bf, SymbolCycle{{0, 3}}), precondition_error);
  EXPECT_THROW((void)butterfly::lift_cycle(bf, NodeCycle{{0, ws.size()}}),
               precondition_error);
  // 0000 -> 0012 is not a De Bruijn edge, so the nodes form no closed walk.
  EXPECT_THROW((void)butterfly::lift_cycle(bf, NodeCycle{{0, 5}}), precondition_error);
}

// --------------------------------------------------------------------------
// Propositions 3.5 / 3.6.

struct BfCase {
  Digit d;
  unsigned n;
};

class ButterflyHcs : public ::testing::TestWithParam<BfCase> {};

TEST_P(ButterflyHcs, DisjointFamilyLifts) {
  const auto [d, n] = GetParam();
  const ButterflyDigraph bf(d, n);
  const auto family = core::butterfly_disjoint_hcs(bf);
  EXPECT_GE(family.size(), psi(d));
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& hc : family) {
    EXPECT_EQ(hc.size(), bf.num_nodes()) << "lift must be Hamiltonian";
    EXPECT_TRUE(butterfly::is_butterfly_cycle(bf, hc));
    for (std::size_t i = 0; i < hc.size(); ++i) {
      EXPECT_TRUE(seen.insert({hc[i], hc[(i + 1) % hc.size()]}).second)
          << "lifted cycles must stay edge-disjoint";
    }
  }
}

TEST_P(ButterflyHcs, FaultFreeHcUnderBudget) {
  const auto [d, n] = GetParam();
  const ButterflyDigraph bf(d, n);
  const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
  Rng rng(0xbf11ULL + d + n);
  const Digraph m = bf.materialize();
  const auto all_edges = m.edge_list();
  for (unsigned trial = 0; trial < 10; ++trial) {
    const unsigned f = static_cast<unsigned>(rng.below(budget + 1));
    std::vector<std::pair<NodeId, NodeId>> faults;
    for (auto idx : rng.sample_distinct(all_edges.size(), f)) {
      faults.push_back(all_edges[idx]);
    }
    const auto hc = core::butterfly_fault_free_hc(bf, faults);
    ASSERT_TRUE(hc.has_value()) << "d=" << unsigned(d) << " n=" << n << " f=" << f;
    EXPECT_EQ(hc->size(), bf.num_nodes());
    EXPECT_TRUE(butterfly::is_butterfly_cycle(bf, *hc));
    std::set<std::pair<NodeId, NodeId>> used;
    for (std::size_t i = 0; i < hc->size(); ++i) {
      used.insert({(*hc)[i], (*hc)[(i + 1) % hc->size()]});
    }
    for (const auto& e : faults) {
      EXPECT_FALSE(used.contains(e));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CoprimePairs, ButterflyHcs,
    ::testing::Values(BfCase{2, 3}, BfCase{2, 5}, BfCase{3, 2}, BfCase{3, 4},
                      BfCase{4, 3}, BfCase{5, 2}, BfCase{5, 3}, BfCase{7, 2},
                      BfCase{9, 2}, BfCase{6, 5}),
    [](const auto& pinfo) {
      return "F" + std::to_string(pinfo.param.d) + "_" + std::to_string(pinfo.param.n);
    });

TEST(ButterflyEmbedding, RequiresCoprimeDimensions) {
  const ButterflyDigraph bf(2, 4);  // gcd(2,4) = 2
  EXPECT_THROW((void)core::butterfly_disjoint_hcs(bf), precondition_error);
  EXPECT_THROW((void)core::butterfly_fault_free_hc(bf, {}), precondition_error);
}

TEST(ButterflyEmbedding, PullBackRejectsNonEdges) {
  const ButterflyDigraph bf(2, 3);
  EXPECT_THROW((void)butterfly::pull_back_edge(bf, 0, 0), precondition_error);
}

}  // namespace
}  // namespace dbr
