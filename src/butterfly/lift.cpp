#include "butterfly/lift.hpp"

#include <algorithm>

#include "nt/numtheory.hpp"
#include "util/require.hpp"

namespace dbr::butterfly {

NodeId partition_node(const ButterflyDigraph& bf, Word x, unsigned i) {
  const WordSpace& ws = bf.columns();
  require(x < ws.size(), "word out of range");
  const unsigned n = ws.length();
  const unsigned level = i % n;
  // pi^{-i}(x) = pi^{n - (i mod n)}(x).
  const Word column = ws.rotate_left(x, (n - level) % n);
  return bf.encode(level, column);
}

std::vector<NodeId> lift_cycle(const ButterflyDigraph& bf, const SymbolCycle& c) {
  const std::vector<Digit>& s = c.symbols;
  require(!s.empty(), "cannot lift an empty cycle");
  const WordSpace& ws = bf.columns();
  require(*std::max_element(s.begin(), s.end()) < ws.radix(),
          "symbol out of range");
  const unsigned n = ws.length();
  const std::uint64_t k = s.size();
  std::vector<Word> place(n);  // place[j] = d^(n-1-j), the weight of digit j
  place[n - 1] = 1;
  for (unsigned j = n - 1; j > 0; --j) place[j - 1] = place[j] * ws.radix();

  // The i'th lifted node is S_(v_i)^i = (i mod n, pi^{-i}(v_i)). Its column
  // holds s_i in digit (i mod n), and the butterfly edge to the next lifted
  // node overwrites exactly that digit with s_(i+n) (Lemma 3.8): one
  // multiply-add per node instead of a rotation.
  std::vector<NodeId> out(nt::lcm(k, n));
  Word column = window_at(ws, c, 0);
  std::uint64_t at = 0;         // i mod k
  std::uint64_t ahead = n % k;  // (i + n) mod k
  unsigned level = 0;           // i mod n
  for (NodeId& node : out) {
    node = level * ws.size() + column;  // ButterflyDigraph::encode
    column += (Word{s[ahead]} - s[at]) * place[level];  // wraps, lands in range
    if (++at == k) at = 0;
    if (++ahead == k) ahead = 0;
    if (++level == n) level = 0;
  }
  return out;
}

std::vector<NodeId> lift_cycle(const ButterflyDigraph& bf, const NodeCycle& c) {
  require(!c.nodes.empty(), "cannot lift an empty cycle");
  const WordSpace& ws = bf.columns();
  require(*std::max_element(c.nodes.begin(), c.nodes.end()) < ws.size(),
          "word out of range");
  const SymbolCycle symbols = to_symbol_cycle(ws, c);
  require(to_node_cycle(ws, symbols) == c,
          "lift_cycle requires a closed walk of B(d,n)");
  return lift_cycle(bf, symbols);
}

Word pull_back_edge(const ButterflyDigraph& bf, NodeId u, NodeId v) {
  require(bf.has_edge(u, v), "not a butterfly edge");
  const WordSpace& ws = bf.columns();
  const unsigned j = bf.level_of(u);
  const Word U = ws.rotate_left(bf.column_of(u), j);
  const Word V = ws.rotate_left(bf.column_of(v), (j + 1) % ws.length());
  ensure(ws.suffix(U) == ws.prefix(V),
         "butterfly edges project to De Bruijn edges (Lemma 3.8)");
  return ws.edge_word(U, ws.tail(V));
}

bool is_butterfly_cycle(const ButterflyDigraph& bf, const std::vector<NodeId>& nodes) {
  if (nodes.empty()) return false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!bf.has_edge(nodes[i], nodes[(i + 1) % nodes.size()])) return false;
  }
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace dbr::butterfly
