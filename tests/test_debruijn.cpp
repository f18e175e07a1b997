#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cycle_corpus.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"
#include "debruijn/necklaces.hpp"
#include "graph/algorithms.hpp"
#include "graph/euler.hpp"
#include "necklace/count.hpp"
#include "util/require.hpp"

namespace dbr {
namespace {

TEST(DeBruijn, BasicCounts) {
  const DeBruijnDigraph g(2, 3);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 16u);
  EXPECT_EQ(g.num_nonloop_edges(), 14u);
}

TEST(DeBruijn, SuccessorsOfPaperNode) {
  // In B(2,3): 110 -> {100, 101}.
  const DeBruijnDigraph g(2, 3);
  const auto& ws = g.words();
  const Word v = ws.from_digits(std::vector<Digit>{1, 1, 0});
  const auto succ = g.successors(v);
  EXPECT_EQ(succ, (std::vector<Word>{ws.from_digits(std::vector<Digit>{1, 0, 0}),
                                     ws.from_digits(std::vector<Digit>{1, 0, 1})}));
}

TEST(DeBruijn, PredecessorSuccessorDuality) {
  const DeBruijnDigraph g(3, 4);
  for (Word v = 0; v < g.num_nodes(); v += 7) {
    for (Word u : g.predecessors(v)) {
      EXPECT_TRUE(g.has_edge(u, v));
    }
    for (Word w : g.successors(v)) {
      EXPECT_TRUE(g.has_edge(v, w));
      const auto preds = g.predecessors(w);
      EXPECT_NE(std::find(preds.begin(), preds.end(), v), preds.end());
    }
  }
}

TEST(DeBruijn, LoopNodes) {
  const DeBruijnDigraph g(3, 3);
  const auto& ws = g.words();
  unsigned loops = 0;
  for (Word v = 0; v < g.num_nodes(); ++v) {
    const bool self = g.has_edge(v, v);
    EXPECT_EQ(self, g.is_loop_node(v));
    if (self) {
      ++loops;
      EXPECT_EQ(v, ws.repeated(ws.head(v)));
    }
  }
  EXPECT_EQ(loops, 3u);  // exactly the d constant words a^n
}

TEST(DeBruijn, InOutDegreeIsD) {
  const DeBruijnDigraph g(4, 3);
  const Digraph m = g.materialize();
  for (std::uint64_t deg : m.out_degrees()) EXPECT_EQ(deg, 4u);
  for (std::uint64_t deg : m.in_degrees()) EXPECT_EQ(deg, 4u);
}

TEST(DeBruijn, StronglyConnected) {
  for (Digit d : {2u, 3u, 4u}) {
    const DeBruijnDigraph g(d, 3);
    const auto scc = strongly_connected_components(g);
    EXPECT_EQ(scc.count, 1u) << "B(" << d << ",3) must be strongly connected";
  }
}

TEST(DeBruijn, DiameterIsN) {
  // dist(u,v) <= n for all u,v, with equality achieved.
  const DeBruijnDigraph g(2, 5);
  std::uint32_t max_ecc = 0;
  for (Word v = 0; v < g.num_nodes(); ++v) {
    const auto r = bfs(g, v);
    EXPECT_EQ(r.reached(), g.num_nodes());
    max_ecc = std::max(max_ecc, r.eccentricity());
  }
  EXPECT_EQ(max_ecc, 5u);
}

TEST(DeBruijn, LineGraphIdentity) {
  // B(d,n) is the line graph of B(d,n-1) under the labeling that sends the
  // edge x1...x(n-1) -> x2...xn to the node x1...xn (Section 2.5).
  for (Digit d : {2u, 3u}) {
    const DeBruijnDigraph small(d, 2);
    const DeBruijnDigraph big(d, 3);
    const Digraph m = small.materialize();
    const Digraph l = line_graph(m);
    ASSERT_EQ(l.num_nodes(), big.num_nodes());
    // CSR edge k of materialize() is (v, shift_append(v, a)) in order; its
    // word is edge_word(v, a).
    const auto el = m.edge_list();
    std::vector<Word> edge_to_word(el.size());
    for (std::uint64_t k = 0; k < el.size(); ++k) {
      edge_to_word[k] = small.words().edge_word(
          el[k].first, small.words().tail(el[k].second));
    }
    std::set<std::pair<Word, Word>> line_edges;
    for (std::uint64_t k = 0; k < l.num_nodes(); ++k) {
      for (NodeId j : l.successors(k)) {
        line_edges.insert({edge_to_word[k], edge_to_word[j]});
      }
    }
    std::set<std::pair<Word, Word>> debruijn_edges;
    for (Word v = 0; v < big.num_nodes(); ++v) {
      for (Word w : big.successors(v)) debruijn_edges.insert({v, w});
    }
    EXPECT_EQ(line_edges, debruijn_edges) << "d=" << d;
  }
}

TEST(UndirectedDeBruijnTest, DegreeCensusPR82) {
  // [PR82]: d nodes of degree 2d-2, d(d-1) of degree 2d-1, d^n - d^2 of 2d.
  for (Digit d : {2u, 3u, 4u}) {
    const UndirectedDeBruijn g(d, 4);
    std::map<unsigned, std::uint64_t> census;
    for (Word v = 0; v < g.num_nodes(); ++v) ++census[g.degree(v)];
    EXPECT_EQ(census[2 * d - 2], d) << "d=" << d;
    EXPECT_EQ(census[2 * d - 1], static_cast<std::uint64_t>(d) * (d - 1)) << "d=" << d;
    EXPECT_EQ(census[2 * d], g.num_nodes() - static_cast<std::uint64_t>(d) * d)
        << "d=" << d;
  }
}

TEST(UndirectedDeBruijnTest, EdgeCountChapter2Comparison) {
  // Chapter 2 intro: the 4096-node De Bruijn graph has 16,384 edges (vs
  // 24,576 for the like-sized hypercube). The quoted figure is the directed
  // count d^(n+1); the undirected UB count drops the 4 loops and merges the
  // d(d-1)/2 = 6 antiparallel pairs between alternating nodes.
  const DeBruijnDigraph dg(4, 6);
  EXPECT_EQ(dg.num_edges(), 16384u);
  const UndirectedDeBruijn g(4, 6);
  EXPECT_EQ(g.num_edges(), 16374u);
}

TEST(UndirectedDeBruijnTest, NeighborsSymmetric) {
  const UndirectedDeBruijn g(3, 3);
  for (Word v = 0; v < g.num_nodes(); ++v) {
    for (Word w : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(v, w));
      const auto back = g.neighbors(w);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
      EXPECT_NE(v, w);
    }
  }
}

TEST(Necklaces, PaperExample) {
  // N(1120) = [0112] = (1120, 1201, 2011, 0112) -- as a set; cycle order
  // starts from the representative 0112.
  const WordSpace ws(3, 4);
  const Word x = ws.from_digits(std::vector<Digit>{1, 1, 2, 0});
  const auto nodes = necklace_nodes(ws, x);
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0], ws.from_digits(std::vector<Digit>{0, 1, 1, 2}));
  EXPECT_EQ(nodes[1], ws.from_digits(std::vector<Digit>{1, 1, 2, 0}));
  EXPECT_EQ(nodes[2], ws.from_digits(std::vector<Digit>{1, 2, 0, 1}));
  EXPECT_EQ(nodes[3], ws.from_digits(std::vector<Digit>{2, 0, 1, 1}));
}

TEST(Necklaces, PartitionNodes) {
  // Necklaces partition B(d,n): disjoint, covering, lengths divide n.
  const WordSpace ws(3, 4);
  const auto necklaces = all_necklaces(ws);
  std::set<Word> seen;
  for (const auto& nk : necklaces) {
    EXPECT_EQ(4 % nk.length, 0u);
    const auto nodes = necklace_nodes(ws, nk.rep);
    EXPECT_EQ(nodes.size(), nk.length);
    for (Word v : nodes) {
      EXPECT_TRUE(seen.insert(v).second) << "node in two necklaces";
    }
  }
  EXPECT_EQ(seen.size(), ws.size());
  // Count matches the Chapter 4 formula.
  EXPECT_EQ(necklaces.size(), necklace::necklaces_total(3, 4));
}

TEST(Necklaces, NecklaceIsCycleInDeBruijn) {
  const WordSpace ws(4, 3);
  const DeBruijnDigraph g(4, 3);
  for (const auto& nk : all_necklaces(ws)) {
    const auto nodes = necklace_nodes(ws, nk.rep);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_TRUE(g.has_edge(nodes[i], nodes[(i + 1) % nodes.size()]));
    }
  }
}

TEST(Necklaces, SuccessorIsRotation) {
  const WordSpace ws(3, 3);
  const Word x = ws.from_digits(std::vector<Digit>{0, 2, 0});
  EXPECT_EQ(necklace_successor(ws, x), ws.from_digits(std::vector<Digit>{2, 0, 0}));
}

TEST(Necklaces, RepsOfFaultSet) {
  // Example 2.1 fault set {020, 112} in B(3,3).
  const WordSpace ws(3, 3);
  const Word f1 = ws.from_digits(std::vector<Digit>{0, 2, 0});
  const Word f2 = ws.from_digits(std::vector<Digit>{1, 1, 2});
  const auto reps = necklace_reps_of(ws, std::vector<Word>{f1, f2});
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0], ws.from_digits(std::vector<Digit>{0, 0, 2}));
  EXPECT_EQ(reps[1], ws.from_digits(std::vector<Digit>{1, 1, 2}));
  EXPECT_EQ(necklace_node_count(ws, reps), 6u);  // both necklaces have length 3
}

TEST(Necklaces, DuplicateFaultsDeduplicated) {
  const WordSpace ws(2, 4);
  const Word a = ws.from_digits(std::vector<Digit>{0, 1, 0, 1});
  const Word b = ws.from_digits(std::vector<Digit>{1, 0, 1, 0});  // same necklace
  const auto reps = necklace_reps_of(ws, std::vector<Word>{a, b});
  EXPECT_EQ(reps.size(), 1u);
  EXPECT_EQ(necklace_node_count(ws, reps), 2u);
}

TEST(Cycles, SymbolCycleExample) {
  // Section 3.1: [0,1,2,1,2] denotes the 5-cycle (012, 121, 212, 120, 201).
  const WordSpace ws(3, 3);
  const SymbolCycle c{{0, 1, 2, 1, 2}};
  const NodeCycle nodes = to_node_cycle(ws, c);
  ASSERT_EQ(nodes.length(), 5u);
  EXPECT_EQ(nodes.nodes[0], ws.from_digits(std::vector<Digit>{0, 1, 2}));
  EXPECT_EQ(nodes.nodes[1], ws.from_digits(std::vector<Digit>{1, 2, 1}));
  EXPECT_EQ(nodes.nodes[2], ws.from_digits(std::vector<Digit>{2, 1, 2}));
  EXPECT_EQ(nodes.nodes[3], ws.from_digits(std::vector<Digit>{1, 2, 0}));
  EXPECT_EQ(nodes.nodes[4], ws.from_digits(std::vector<Digit>{2, 0, 1}));
  EXPECT_TRUE(is_cycle(ws, c));
  EXPECT_TRUE(is_cycle(ws, nodes));
  EXPECT_EQ(to_symbol_cycle(ws, nodes), c);
}

TEST(Cycles, ShortCycleWrapsWindows) {
  // [0,1] in B(2,3) is the 2-cycle (010, 101).
  const WordSpace ws(2, 3);
  const SymbolCycle c{{0, 1}};
  const NodeCycle nodes = to_node_cycle(ws, c);
  ASSERT_EQ(nodes.length(), 2u);
  EXPECT_EQ(nodes.nodes[0], ws.from_digits(std::vector<Digit>{0, 1, 0}));
  EXPECT_EQ(nodes.nodes[1], ws.from_digits(std::vector<Digit>{1, 0, 1}));
  EXPECT_TRUE(is_cycle(ws, c));
}

TEST(Cycles, SlidingWindowsMatchWindowAtOnTheCorpus) {
  // to_node_cycle derives each node from its predecessor; window_at
  // assembles every window from scratch and is the reference.
  std::size_t cycles = 0;
  test::for_each_corpus_cycle([&](const WordSpace& ws, const SymbolCycle& c) {
    const NodeCycle nodes = to_node_cycle(ws, c);
    ASSERT_EQ(nodes.length(), c.length());
    for (std::size_t i = 0; i < c.length(); ++i) {
      ASSERT_EQ(nodes.nodes[i], window_at(ws, c, i))
          << "B(" << ws.radix() << "," << ws.length() << "), k=" << c.length()
          << ", index " << i;
    }
    ++cycles;
  });
  EXPECT_GT(cycles, 3000u);
}

TEST(Cycles, SlidingEdgeWindowsMatchWindowAtOnTheCorpus) {
  // edge_words slides one (n+1)-window; the reference assembles each edge
  // from window_at and the symbol after it. avoids_edges must agree with a
  // membership test, for a short fault list and for a long unsorted one.
  std::size_t cycles = 0;
  test::for_each_corpus_cycle([&](const WordSpace& ws, const SymbolCycle& c) {
    const std::size_t k = c.length();
    const std::vector<Word> edges = edge_words(ws, c);
    ASSERT_EQ(edges.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(edges[i], ws.edge_word(window_at(ws, c, i),
                                       c.symbols[(i + ws.length()) % k]))
          << "B(" << ws.radix() << "," << ws.length() << "), k=" << k
          << ", index " << i;
    }
    if (cycles++ % 16 != 0) return;
    std::vector<Word> sorted = edges;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Word> absent;  // the smallest edge words the cycle skips
    for (Word e = 0; absent.size() < 20 && e < ws.edge_word_count(); ++e) {
      if (!std::binary_search(sorted.begin(), sorted.end(), e)) absent.push_back(e);
    }
    const std::vector<Word> few(absent.begin(),
                                absent.begin() + std::min<std::size_t>(3, absent.size()));
    EXPECT_TRUE(avoids_edges(ws, c, few));
    EXPECT_TRUE(avoids_edges(ws, c, absent));
    std::vector<Word> hit = absent;
    hit.push_back(edges[k / 2]);
    std::reverse(hit.begin(), hit.end());
    EXPECT_FALSE(avoids_edges(ws, c, hit));
    EXPECT_FALSE(avoids_edges(ws, c, std::vector<Word>{edges[k - 1]}));
  });
  EXPECT_GT(cycles, 3000u);
}

TEST(Cycles, RepeatedWindowIsNotACycle) {
  const WordSpace ws(2, 2);
  // [0,1,0,1] repeats windows 01 and 10.
  EXPECT_FALSE(is_cycle(ws, SymbolCycle{{0, 1, 0, 1}}));
  EXPECT_TRUE(is_cycle(ws, SymbolCycle{{0, 1}}));
}

TEST(Cycles, EdgeWords) {
  const WordSpace ws(2, 2);
  const SymbolCycle c{{0, 0, 1, 1}};  // Hamiltonian in B(2,2)
  EXPECT_TRUE(is_hamiltonian(ws, c));
  const auto ew = edge_words(ws, c);
  // Windows of length 3: 001, 011, 110, 100.
  std::vector<Word> expect{1, 3, 6, 4};
  EXPECT_EQ(ew, expect);
}

TEST(Cycles, EdgeDisjointness) {
  const WordSpace ws(2, 2);
  const SymbolCycle a{{0, 0, 1, 1}};
  const SymbolCycle b{{0, 1}};  // edges 010, 101
  EXPECT_TRUE(edges_disjoint(ws, a, b));
  EXPECT_FALSE(edges_disjoint(ws, a, a));
}

TEST(Cycles, AvoidsEdges) {
  const WordSpace ws(2, 2);
  const SymbolCycle a{{0, 0, 1, 1}};
  EXPECT_TRUE(avoids_edges(ws, a, std::vector<Word>{2}));   // 010 unused
  EXPECT_FALSE(avoids_edges(ws, a, std::vector<Word>{1}));  // 001 used
}

TEST(Cycles, CanonicalRotation) {
  const WordSpace ws(3, 3);
  NodeCycle c{{ws.from_digits(std::vector<Digit>{1, 2, 0}),
               ws.from_digits(std::vector<Digit>{2, 0, 1}),
               ws.from_digits(std::vector<Digit>{0, 1, 2}),
               ws.from_digits(std::vector<Digit>{1, 2, 1}),
               ws.from_digits(std::vector<Digit>{2, 1, 2})}};
  const NodeCycle canon = canonical_rotation(ws, c);
  EXPECT_EQ(canon.nodes[0], ws.from_digits(std::vector<Digit>{0, 1, 2}));
  EXPECT_EQ(canon.length(), 5u);
  EXPECT_TRUE(is_cycle(ws, canon));
}

TEST(Cycles, EulerianHamiltonianBridge) {
  // An Eulerian circuit of B(2,3) yields a De Bruijn sequence = Hamiltonian
  // cycle of B(2,4) (line-graph identity, Section 2.5).
  const DeBruijnDigraph small(2, 3);
  const Digraph m = small.materialize();
  const auto circuit = eulerian_circuit(m);
  ASSERT_EQ(circuit.size(), 16u);
  SymbolCycle seq;
  for (NodeId v : circuit) seq.symbols.push_back(small.words().head(v));
  const WordSpace big(2, 4);
  EXPECT_TRUE(is_hamiltonian(big, seq));
}

}  // namespace
}  // namespace dbr
