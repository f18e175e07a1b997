#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/word.hpp"

namespace dbr {

/// A closed walk in B(d,n) given by its node sequence v0, v1, ..., v(k-1)
/// (the edge v(k-1) -> v0 closes it). A *cycle* additionally has all nodes
/// distinct.
struct NodeCycle {
  std::vector<Word> nodes;

  std::size_t length() const { return nodes.size(); }
  bool operator==(const NodeCycle&) const = default;
};

/// The circular sequence representation of Section 3.1: C = [c0, ..., c(k-1)]
/// denotes the closed path whose i'th node is the window c_i c_(i+1) ...
/// c_(i+n-1) (indices mod k). n-tuples are nodes; (n+1)-tuples are edges.
struct SymbolCycle {
  std::vector<Digit> symbols;

  std::size_t length() const { return symbols.size(); }
  bool operator==(const SymbolCycle&) const = default;
};

/// Node at position i of the symbol cycle: the length-n window starting at i.
Word window_at(const WordSpace& ws, const SymbolCycle& c, std::size_t i);

/// Expands a symbol cycle to its node sequence: node i equals
/// window_at(ws, c, i), each derived from the previous one by a one-digit
/// shift.
NodeCycle to_node_cycle(const WordSpace& ws, const SymbolCycle& c);

/// Collapses a node cycle to symbols (c_i = first digit of v_i).
SymbolCycle to_symbol_cycle(const WordSpace& ws, const NodeCycle& c);

/// True if the node sequence is a closed walk (consecutive nodes adjacent
/// in B(d,n), wrap included).
bool is_closed_walk(const WordSpace& ws, const NodeCycle& c);

/// True if the node sequence is a cycle: a closed walk with distinct nodes.
bool is_cycle(const WordSpace& ws, const NodeCycle& c);

/// True if the symbol cycle is a cycle (all length-n windows distinct).
bool is_cycle(const WordSpace& ws, const SymbolCycle& c);

/// True if the cycle visits every node of B(d,n).
bool is_hamiltonian(const WordSpace& ws, const NodeCycle& c);
bool is_hamiltonian(const WordSpace& ws, const SymbolCycle& c);

/// The k edge words ((n+1)-windows) of the cycle, in traversal order. The
/// symbol-cycle form slides one window along the cycle: one multiply-add
/// per edge, as in to_node_cycle.
std::vector<Word> edge_words(const WordSpace& ws, const SymbolCycle& c);
std::vector<Word> edge_words(const WordSpace& ws, const NodeCycle& c);

/// True if two cycles share no edge (the paper's "edge-disjoint"; for
/// Hamiltonian cycles simply "disjoint", Section 3.1).
bool edges_disjoint(const WordSpace& ws, const SymbolCycle& a, const SymbolCycle& b);

/// True if the cycle uses none of the given faulty edge words. One sliding
/// pass over the cycle's edge windows that stops at the first faulty one;
/// it allocates nothing for up to 16 faults, and a longer list costs one
/// sorted copy.
bool avoids_edges(const WordSpace& ws, const SymbolCycle& c,
                  std::span<const Word> faulty_edge_words);

/// Rotates the cycle so that it starts at its minimal node; two equal cycles
/// then compare equal regardless of starting point.
NodeCycle canonical_rotation(const WordSpace& ws, NodeCycle c);

/// Human-readable rendering "(v0, v1, ...)".
std::string to_string(const WordSpace& ws, const NodeCycle& c);

}  // namespace dbr
