#include "debruijn/cycle.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/require.hpp"

namespace dbr {

Word window_at(const WordSpace& ws, const SymbolCycle& c, std::size_t i) {
  const std::size_t k = c.symbols.size();
  require(k > 0, "empty symbol cycle has no windows");
  Word x = 0;
  for (unsigned j = 0; j < ws.length(); ++j) {
    x = x * ws.radix() + c.symbols[(i + j) % k];
  }
  return x;
}

NodeCycle to_node_cycle(const WordSpace& ws, const SymbolCycle& c) {
  const std::size_t k = c.symbols.size();
  NodeCycle out;
  if (k == 0) return out;
  out.nodes.resize(k);
  // Each window is its predecessor shifted by one digit: drop s_i from the
  // front, append s_(i+n) at the back. (x - s_i d^(n-1)) d + s_(i+n) is
  // written as x d + (s_(i+n) - s_i d^n), so only one multiply-add depends
  // on the previous window; the bracket wraps mod 2^64 and the sum lands
  // back in range (x d < d^(n+1), which WordSpace guarantees fits).
  Word x = window_at(ws, c, 0);
  std::size_t ahead = ws.length() % k;  // index of s_(i+n) mod k
  for (std::size_t i = 0; i < k; ++i) {
    out.nodes[i] = x;
    x = x * ws.radix() + (c.symbols[ahead] - c.symbols[i] * ws.size());
    if (++ahead == k) ahead = 0;
  }
  return out;
}

SymbolCycle to_symbol_cycle(const WordSpace& ws, const NodeCycle& c) {
  SymbolCycle out;
  out.symbols.reserve(c.nodes.size());
  for (Word v : c.nodes) out.symbols.push_back(ws.head(v));
  return out;
}

bool is_closed_walk(const WordSpace& ws, const NodeCycle& c) {
  const std::size_t k = c.nodes.size();
  if (k == 0) return false;
  for (std::size_t i = 0; i < k; ++i) {
    const Word u = c.nodes[i];
    const Word v = c.nodes[(i + 1) % k];
    if (u >= ws.size() || ws.suffix(u) != ws.prefix(v)) return false;
  }
  return true;
}

bool is_cycle(const WordSpace& ws, const NodeCycle& c) {
  if (!is_closed_walk(ws, c)) return false;
  std::vector<Word> sorted = c.nodes;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

bool is_cycle(const WordSpace& ws, const SymbolCycle& c) {
  if (c.symbols.empty()) return false;
  for (Digit s : c.symbols) {
    if (s >= ws.radix()) return false;
  }
  return is_cycle(ws, to_node_cycle(ws, c));
}

bool is_hamiltonian(const WordSpace& ws, const NodeCycle& c) {
  return c.nodes.size() == ws.size() && is_cycle(ws, c);
}

bool is_hamiltonian(const WordSpace& ws, const SymbolCycle& c) {
  return c.symbols.size() == ws.size() && is_cycle(ws, c);
}

namespace {

/// Calls keep_going(e) with the edge words e_0, e_1, ... of the cycle in
/// traversal order, stopping at the first false; returns false iff it
/// stopped early. e_i is the (n+1)-window s_i ... s_(i+n), and each one is
/// its predecessor shifted by one digit, written as in to_node_cycle:
/// e d + (s_(i+n+1) - s_i d^(n+1)). Here e d may pass 2^64, but every
/// term wraps mod 2^64 and the true result is below d^(n+1), which
/// WordSpace guarantees fits, so the sum is exact.
template <typename Fn>
bool for_each_edge_word(const WordSpace& ws, const SymbolCycle& c,
                        Fn&& keep_going) {
  const std::size_t k = c.symbols.size();
  if (k == 0) return true;
  const Word d = ws.radix();
  const Word span = ws.edge_word_count();  // d^(n+1)
  Word e = 0;
  for (unsigned j = 0; j <= ws.length(); ++j) e = e * d + c.symbols[j % k];
  std::size_t ahead = (ws.length() + 1) % k;  // index of s_(i+n+1) mod k
  for (std::size_t i = 0; i < k; ++i) {
    if (!keep_going(e)) return false;
    e = e * d + (c.symbols[ahead] - c.symbols[i] * span);
    if (++ahead == k) ahead = 0;
  }
  return true;
}

}  // namespace

std::vector<Word> edge_words(const WordSpace& ws, const SymbolCycle& c) {
  std::vector<Word> out;
  out.reserve(c.symbols.size());
  for_each_edge_word(ws, c, [&out](Word e) {
    out.push_back(e);
    return true;
  });
  return out;
}

std::vector<Word> edge_words(const WordSpace& ws, const NodeCycle& c) {
  const std::size_t k = c.nodes.size();
  std::vector<Word> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(ws.edge_word(c.nodes[i], ws.tail(c.nodes[(i + 1) % k])));
  }
  return out;
}

bool edges_disjoint(const WordSpace& ws, const SymbolCycle& a, const SymbolCycle& b) {
  const auto ea = edge_words(ws, a);
  std::unordered_set<Word> seen(ea.begin(), ea.end());
  for (Word e : edge_words(ws, b)) {
    if (seen.contains(e)) return false;
  }
  return true;
}

bool avoids_edges(const WordSpace& ws, const SymbolCycle& c,
                  std::span<const Word> faulty_edge_words) {
  if (faulty_edge_words.empty()) return true;
  // The paper's fault budgets are a few edges: compare each window with
  // every fault. A long list, which a request may carry, is sorted once and
  // binary-searched, so the pass stays O(k log f).
  constexpr std::size_t kCompareAll = 16;
  if (faulty_edge_words.size() <= kCompareAll) {
    return for_each_edge_word(ws, c, [faulty_edge_words](Word e) {
      return std::find(faulty_edge_words.begin(), faulty_edge_words.end(),
                       e) == faulty_edge_words.end();
    });
  }
  std::vector<Word> sorted(faulty_edge_words.begin(), faulty_edge_words.end());
  std::sort(sorted.begin(), sorted.end());
  return for_each_edge_word(ws, c, [&sorted](Word e) {
    return !std::binary_search(sorted.begin(), sorted.end(), e);
  });
}

NodeCycle canonical_rotation(const WordSpace& ws, NodeCycle c) {
  (void)ws;
  if (c.nodes.empty()) return c;
  const auto it = std::min_element(c.nodes.begin(), c.nodes.end());
  std::rotate(c.nodes.begin(), it, c.nodes.end());
  return c;
}

std::string to_string(const WordSpace& ws, const NodeCycle& c) {
  std::string out = "(";
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    if (i > 0) out += ", ";
    out += ws.to_string(c.nodes[i]);
  }
  out += ")";
  return out;
}

}  // namespace dbr
