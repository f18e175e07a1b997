#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/instance_context.hpp"
#include "debruijn/cycle.hpp"

namespace dbr::core {

/// Edge-fault-tolerant ring embedding (Section 3.3).
///
/// Faulty edges are given as (n+1)-words over Z_d (see WordSpace::edge_word).
/// Returns a Hamiltonian cycle of B(d,n) avoiding every faulty edge, built
/// by one of the paper's two constructions:
///
///  * scan of the psi(d) pairwise disjoint Hamiltonian cycles (sufficient
///    whenever f <= psi(d) - 1, Proposition 3.2), or
///  * the recursive phi(d)-construction (Proposition 3.3): for prime-power
///    d, pick a fault-free shifted maximal cycle s + C (at least d - f of
///    the d shifts are fault-free) and a fault-free insertion pair
///    (alpha s^n, s^n alpha-hat) (the d-1 pairs are pairwise disjoint);
///    for composite d = s*t split the fault set into <= phi(s) and
///    <= phi(t) halves, recurse and Rees-compose.
///
/// A result is guaranteed when f <= MAX(psi(d)-1, phi_edge_bound(d))
/// (Proposition 3.4); beyond that the function still tries both routes and
/// returns std::nullopt on failure. Faults on loop edges are harmless: no
/// Hamiltonian cycle traverses a loop.
///
/// Requires d >= 2 and n >= 2.
std::optional<SymbolCycle> fault_free_hamiltonian_cycle(
    std::uint64_t d, unsigned n, std::span<const Word> faulty_edge_words);

/// The phi(d)-construction alone (Proposition 3.3); exposed for tests and
/// for the ablation bench. Returns nullopt if the recursion cannot place
/// the fault set within the per-factor budgets.
std::optional<SymbolCycle> fault_free_hc_phi_construction(
    std::uint64_t d, unsigned n, std::span<const Word> faulty_edge_words);

/// The psi(d)-family scan alone; nullopt if every member hits a fault.
std::optional<SymbolCycle> fault_free_hc_family_scan(
    std::uint64_t d, unsigned n, std::span<const Word> faulty_edge_words);

// --- Context-backed solve phase (the context/solve split) ---
//
// Each solve_edge_* borrows a shared InstanceContext and performs only
// fault-dependent work: the disjoint-HC family, its flat edge index and
// the per-prime-power maximal-cycle machinery are all taken from the
// context. Answers are identical to the fault_free_* functions above on the
// same instance and fault set.

/// Proposition 3.4 dispatch (scan then phi) against a shared context.
std::optional<SymbolCycle> solve_edge_auto(const InstanceContext& ctx,
                                           std::span<const Word> faulty_edge_words);

/// psi(d)-family selection via the context's flat edge-to-member index: O(f)
/// lookups per candidate member instead of a full family scan.
std::optional<SymbolCycle> solve_edge_scan(const InstanceContext& ctx,
                                           std::span<const Word> faulty_edge_words);

/// phi(d)-construction using the context's cached maximal-cycle families.
std::optional<SymbolCycle> solve_edge_phi(const InstanceContext& ctx,
                                          std::span<const Word> faulty_edge_words);

}  // namespace dbr::core
