#include "core/butterfly_embedding.hpp"

#include "butterfly/lift.hpp"
#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "debruijn/cycle.hpp"
#include "nt/numtheory.hpp"
#include "util/require.hpp"

namespace dbr::core {

namespace {

void require_coprime(const ButterflyDigraph& bf) {
  require(nt::gcd(bf.radix(), bf.levels()) == 1,
          "butterfly embedding requires gcd(d, n) = 1 (Section 3.4)");
}

}  // namespace

std::optional<std::vector<NodeId>> butterfly_fault_free_hc(
    const ButterflyDigraph& bf,
    std::span<const std::pair<NodeId, NodeId>> faulty_edges) {
  require_coprime(bf);
  const WordSpace& ws = bf.columns();
  // Pull every faulty butterfly edge back to its De Bruijn edge (Lemma
  // 3.10): if the De Bruijn cycle avoids U -> V, the lift avoids all n
  // butterfly copies of it, in particular the faulty one.
  std::vector<Word> debruijn_faults;
  debruijn_faults.reserve(faulty_edges.size());
  for (const auto& [u, v] : faulty_edges) {
    debruijn_faults.push_back(butterfly::pull_back_edge(bf, u, v));
  }
  const auto hc =
      fault_free_hamiltonian_cycle(ws.radix(), ws.length(), debruijn_faults);
  if (!hc.has_value()) return std::nullopt;
  return butterfly::lift_cycle(bf, *hc);
}

std::optional<std::vector<NodeId>> solve_butterfly(
    const InstanceContext& ctx,
    std::span<const std::pair<NodeId, NodeId>> faulty_edges) {
  const ButterflyDigraph& bf = ctx.butterfly();  // requires gcd(d, n) = 1
  std::vector<Word> debruijn_faults;
  debruijn_faults.reserve(faulty_edges.size());
  for (const auto& [u, v] : faulty_edges) {
    debruijn_faults.push_back(butterfly::pull_back_edge(bf, u, v));
  }
  const auto hc = solve_edge_auto(ctx, debruijn_faults);
  if (!hc.has_value()) return std::nullopt;
  return butterfly::lift_cycle(bf, *hc);
}

std::vector<std::vector<NodeId>> butterfly_disjoint_hcs(const ButterflyDigraph& bf) {
  require_coprime(bf);
  const WordSpace& ws = bf.columns();
  std::vector<std::vector<NodeId>> out;
  for (const SymbolCycle& hc : disjoint_hamiltonian_cycles(ws.radix(), ws.length())) {
    out.push_back(butterfly::lift_cycle(bf, hc));
  }
  return out;
}

}  // namespace dbr::core
