#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"

namespace dbr::core {

/// Per-phase communication-round accounting for the distributed FFC run.
/// Section 2.4 predicts probe/dossier/reroute = Theta(n) and broadcast =
/// eccentricity(R) + 1, for a total of O(K + n).
struct DistributedFfcStats {
  std::uint64_t probe_rounds = 0;
  std::uint64_t broadcast_rounds = 0;
  std::uint64_t dossier_rounds = 0;
  std::uint64_t announce_rounds = 0;
  std::uint64_t reroute_rounds = 0;
  std::uint64_t messages = 0;

  std::uint64_t total_rounds() const {
    return probe_rounds + broadcast_rounds + dossier_rounds + announce_rounds +
           reroute_rounds;
  }
};

/// Outcome of one distributed FFC run: the embedded cycle plus the
/// per-phase accounting of Section 2.4.
struct DistributedFfcResult {
  NodeCycle cycle;  ///< H, starting at the root.
  Word root = 0;
  std::uint64_t bstar_size = 0;
  std::uint32_t root_eccentricity = 0;
  DistributedFfcStats stats;
};

/// Pure Section-2.4 cost model: the per-phase communication rounds (and a
/// message envelope) one distributed FFC rebuild of B(base, n) costs,
/// without running the protocol. Probe is exactly n rounds (the necklace
/// token must come full circle), dossier and reroute are upper-bounded by
/// their n-round circulations, the T_w announce is a single multicast round,
/// and broadcast is eccentricity(R) + 1 — pass the measured root
/// eccentricity when known, or 0 to estimate with the fault-free diameter
/// n (withdrawn necklaces can stretch B*'s eccentricity past n, so the
/// default is an estimate there, exact in the fault-free graph).
/// The message envelope charges every node its probe/dossier circulations
/// plus the d-way flood and announce fan-outs. sim::TrafficSim prices the
/// rebuild window a churn epoch opens with it (the rounds during which
/// stale forwarding tables stay installed).
/// Tested against the measured DistributedFfcSolver::run accounting in
/// tests/test_distributed_ffc.cpp.
DistributedFfcStats predict_rebuild_rounds(Digit base, unsigned n,
                                           std::uint32_t eccentricity = 0);

/// Network-level implementation of the FFC algorithm (Section 2.4) on the
/// synchronous multi-port message-passing simulator. Every processor runs
/// the same local rules; messages travel only along De Bruijn links, in the
/// forward (successor) direction:
///
///  1. Necklace probe (n rounds): each node circulates a token along its
///     necklace; nodes whose token fails to return lie on a faulty necklace
///     and withdraw from the computation.
///  2. Broadcast (K+1 rounds): R floods a marker; first reception fixes a
///     node's BFS distance, the minimum-id sender of that round its parent.
///  3. Dossier exchange (n rounds): each surviving necklace ring-all-gathers
///     (id, dist, parent) triples; everyone deduces the necklace leader
///     (earliest reception, min id), the incoming tree label w and the
///     parent necklace.
///  4. T_w announce (1 round): each child necklace's exit node multicasts
///     (child rep, common parent id) to its d successors - precisely the
///     entry nodes w.g of every T_w member - so each member learns the full
///     membership and computes its successor in the ascending rep cycle.
///  5. Reroute circulation (n rounds): the computed exit-node instruction
///     travels around the necklace to the exit node; every node now knows
///     its successor in H (rerouted or necklace rotation).
///
/// The faulty node set is injected into the simulator as fail-stop dead
/// processors; the protocol receives no advance knowledge of it.
class DistributedFfcSolver {
 public:
  explicit DistributedFfcSolver(DeBruijnDigraph graph);

  const DeBruijnDigraph& graph() const { return graph_; }

  /// Runs the protocol with a designated root processor (the paper's
  /// distinguished node R; its minimal rotation is used). The root must not
  /// lie on a faulty necklace.
  DistributedFfcResult run(std::span<const Word> faulty_nodes, Word root) const;

  /// The paper's root rule for the simulation tables: R = 0...01, or the
  /// nearest nonfaulty substitute (breadth-first from 0...01) when R's
  /// necklace is faulty.
  Word default_root(std::span<const Word> faulty_nodes) const;

 private:
  DeBruijnDigraph graph_;
};

}  // namespace dbr::core
