#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/instance_context.hpp"
#include "core/solve_scratch.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"
#include "debruijn/necklaces.hpp"

namespace dbr::core {

/// The necklace adjacency graph N* of Section 2.2: nodes are the necklaces
/// of B*, with an edge labeled w (a (n-1)-digit value) from [x] to [y]
/// whenever a.w is in [x] and b.w is in [y] for digits a != b. Edges come in
/// antiparallel pairs sharing a label.
struct NecklaceAdjacency {
  struct Edge {
    Word from;   // necklace representative
    Word to;     // necklace representative
    Word label;  // (n-1)-digit value w

    auto operator<=>(const Edge&) const = default;
  };

  std::vector<Word> reps;   // sorted representatives of the necklaces of B*
  std::vector<Edge> edges;  // all directed labeled edges, sorted
};

/// A labeled necklace-tree edge (used for both the spanning tree T and the
/// modified tree D of the FFC algorithm).
struct LabeledEdge {
  Word from;
  Word to;
  Word label;

  auto operator<=>(const LabeledEdge&) const = default;
};

/// Everything the FFC algorithm produces, including the intermediate
/// structures needed to reproduce Figures 2.1-2.4 and to audit the proof
/// obligations of Section 2.3.
struct FfcResult {
  NodeCycle cycle;  ///< H, starting at the root; Hamiltonian on B*.
  Word root = 0;    ///< The distinguished node R (a necklace representative).
  std::uint64_t bstar_size = 0;          ///< |B*| == cycle length.
  std::uint32_t root_eccentricity = 0;   ///< max directed distance from R in B*.
  std::vector<Word> faulty_necklace_reps;  ///< reps of removed necklaces
  std::uint64_t faulty_node_count = 0;     ///< N_F: nodes in faulty necklaces
  std::uint64_t necklace_count = 0;        ///< necklaces forming B*
  std::vector<LabeledEdge> tree_edges;      ///< T (Step 1)
  std::vector<LabeledEdge> modified_edges;  ///< D (Step 2)
};

/// Optional knobs of the FFC solve.
struct FfcOptions {
  /// Root override. Must be a nonfaulty node; its minimal rotation is used
  /// as R and the cycle is constructed in R's component. When absent the
  /// solver works in the largest component of B(d,n) minus the faulty
  /// necklaces (ties toward the component containing the smallest node) and
  /// roots at that component's smallest node.
  std::optional<Word> root;
};

/// The paper's guarantee envelope on |H| for `fault_count` distinct faulty
/// nodes in B(d,n): Proposition 2.2 gives |H| >= d^n - n*f when f <= d - 2,
/// Proposition 2.3 gives |H| >= 2^n - (n+1) for a single fault in B(2,n);
/// outside both regimes the lower bound degrades to 0 (the surviving
/// component can be arbitrarily small). The upper bound is d^n - f: each
/// faulty node removes at least itself. Returns {lower, upper}.
std::pair<std::uint64_t, std::uint64_t> ffc_cycle_length_bounds(
    Digit d, unsigned n, std::uint64_t fault_count);

/// Node-fault-tolerant ring embedding: the FFC algorithm of Chapter 2.
///
/// Given a set of faulty nodes (locations need not be distinct), removes
/// every necklace containing a fault and stitches the remaining necklaces of
/// the surviving component B* into a single cycle H via a spanning tree of
/// the necklace adjacency graph. H has unit dilation and congestion: it is a
/// subgraph of the faulty graph.
///
/// Guarantees reproduced from the paper, enforced by tests:
///  * H is a Hamiltonian cycle of B* (Proposition 2.1).
///  * |H| >= d^n - nf and eccentricity <= 2n when f <= d-2 (Proposition 2.2).
///  * |H| >= 2^n - (n+1) for a single fault in B(2,n) (Proposition 2.3).
class FfcSolver {
 public:
  explicit FfcSolver(DeBruijnDigraph graph);

  /// Context-backed solver: borrows the precomputed necklace table of `ctx`
  /// so solve() performs only fault-dependent work (the caller must keep the
  /// context alive for the solver's lifetime).
  explicit FfcSolver(const InstanceContext& ctx);

  const DeBruijnDigraph& graph() const { return graph_; }

  /// Runs the full FFC algorithm (reference implementation). Allocates all
  /// working state per call; kept verbatim as the differential-testing
  /// baseline and the raw-speed yardstick for the arena path below (the
  /// fuzz suite holds the two bit-identical).
  FfcResult solve(std::span<const Word> faulty_nodes, const FfcOptions& options = {}) const;

  /// Allocation-free FFC solve into a reusable arena; requires a
  /// context-backed solver (the arena path leans on the precomputed
  /// label-merge tables). Bit-identical to solve(): every tie-break of the
  /// reference (broadcast min-predecessor parents, largest-component
  /// max-size/min-node selection, Step-2 ascending member order) is
  /// order-independent, so reorganizing the computation around the arena
  /// preserves the exact result bytes.
  FfcResult solve(std::span<const Word> faulty_nodes, SolveScratch& scratch,
                  const FfcOptions& options = {}) const;

  /// Active-node mask after removing faulty necklaces (true = in play).
  std::vector<bool> active_mask(std::span<const Word> faulty_nodes) const;

  /// The necklace adjacency graph N* over a given active component mask.
  NecklaceAdjacency necklace_adjacency(const std::vector<bool>& active) const;

  /// The strongly connected component of `root` within the active subgraph
  /// (forward-reach intersected with backward-reach). Returned as a mask.
  std::vector<bool> component_of(const std::vector<bool>& active, Word root) const;

  /// Size and representative (smallest node) of the largest strongly
  /// connected component of the active subgraph.
  std::pair<Word, std::uint64_t> largest_component_root(
      const std::vector<bool>& active) const;

 private:
  /// Minimal rotation of x: table lookup when context-backed, else computed.
  Word min_rot(Word x) const {
    return necklaces_ != nullptr ? necklaces_->min_rot[x]
                                 : graph_.words().min_rotation(x);
  }

  DeBruijnDigraph graph_;
  const NecklaceTable* necklaces_ = nullptr;  // borrowed; may be null
  const InstanceContext* ctx_ = nullptr;      // borrowed; may be null
};

/// The solve phase of the context/solve split: runs the FFC algorithm on a
/// shared InstanceContext, paying only fault-dependent work. Uses the
/// calling thread's scratch arena (solve_scratch_tls), so steady-state
/// solves allocate only their result.
FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    const FfcOptions& options = {});

/// solve_ffc against an explicit scratch arena (sessions own one; the
/// scratch-less overload routes to the thread-local arena).
FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    SolveScratch& scratch, const FfcOptions& options = {});

}  // namespace dbr::core
