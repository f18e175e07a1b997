#pragma once

#include <vector>

#include "butterfly/butterfly.hpp"
#include "debruijn/cycle.hpp"

namespace dbr::butterfly {

/// The partition map of [ABR90] quoted in Section 3.4: De Bruijn node x is
/// associated with the butterfly node set S_x = {(i, pi^{-i}(x))}; this
/// returns S_x^i = (i mod n, pi^{-i}(x)).
NodeId partition_node(const ButterflyDigraph& bf, Word x, unsigned i);

/// Lemma 3.9's cycle lift Phi: a k-cycle (v_0, ..., v_{k-1}) in B(d,n) maps
/// to the LCM(k,n)-cycle (S_{v_0}^0, S_{v_1}^1, ...) in F(d,n). Entry i
/// equals partition_node(bf, v_(i mod k), i mod n); consecutive entries
/// differ in one column digit, so each costs one multiply-add.
/// Throws precondition_error on an empty cycle or a symbol >= d.
std::vector<NodeId> lift_cycle(const ButterflyDigraph& bf, const SymbolCycle& c);

/// The same lift from a node sequence, which must be a closed walk of
/// B(d,n) with every word in range (precondition_error otherwise); forwards
/// to the SymbolCycle overload.
std::vector<NodeId> lift_cycle(const ButterflyDigraph& bf, const NodeCycle& c);

/// Pulls a butterfly edge back to the De Bruijn edge it implements
/// (Lemma 3.8): the butterfly edge S_U^j -> S_V^{j+1} corresponds to the
/// De Bruijn edge U -> V; returns the (n+1)-edge-word of B(d,n).
/// Throws precondition_error if (u, v) is not a butterfly edge.
Word pull_back_edge(const ButterflyDigraph& bf, NodeId u, NodeId v);

/// True if the node sequence is a cycle of F(d,n) (distinct nodes, every
/// consecutive pair a butterfly edge, wrap included).
bool is_butterfly_cycle(const ButterflyDigraph& bf, const std::vector<NodeId>& nodes);

}  // namespace dbr::butterfly
