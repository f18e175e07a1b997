#pragma once

// The cycle corpus of the fast-path equivalence tests (test_debruijn's
// sliding-window materialization, test_butterfly's incremental lift).

#include <optional>

#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "debruijn/cycle.hpp"

namespace dbr::test {

/// Calls fn(ws, cycle) for
///  * every psi-family Hamiltonian cycle and the fault-free phi-construction
///    cycle of every B(d,n) with n >= 2 and d^n <= 2*10^4;
///  * every short cycle with k < n over d <= 5, 4 <= n <= 7: the
///    single-symbol loops, the 2-cycles and the 3-cycles.
template <typename Fn>
void for_each_corpus_cycle(Fn&& fn) {
  constexpr Word kMaxNodes = 20000;
  for (Digit d = 2; Word{d} * d <= kMaxNodes; ++d) {
    Word size = d;
    for (unsigned n = 2; size * d <= kMaxNodes; ++n) {
      size *= d;
      const WordSpace ws(d, n);
      for (const SymbolCycle& c : core::disjoint_hamiltonian_cycles(d, n)) fn(ws, c);
      if (const std::optional<SymbolCycle> phi =
              core::fault_free_hc_phi_construction(d, n, {})) {
        fn(ws, *phi);
      }
    }
  }
  for (Digit d = 2; d <= 5; ++d) {
    for (unsigned n = 4; n <= 7; ++n) {
      const WordSpace ws(d, n);
      for (Digit a = 0; a < d; ++a) {
        fn(ws, SymbolCycle{{a}});
        for (Digit b = 0; b < d; ++b) {
          if (b != a) fn(ws, SymbolCycle{{a, b}});
          for (Digit c = 0; c < d; ++c) {
            if (a != b || b != c) fn(ws, SymbolCycle{{a, b, c}});
          }
        }
      }
    }
  }
}

}  // namespace dbr::test
