#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/word.hpp"

namespace dbr::core {

/// Reusable scratch arena for the solve/repair hot paths (core/ffc,
/// core/mixed_fault, core/repair). Holds every internal mask, queue,
/// distance array and flat lookup table the solvers need, so a steady-state
/// solve allocates nothing beyond its returned result: buffers are sized on
/// first use per (base, n) and reused across solves (a session churning one
/// instance reaches steady state after its first solve).
///
/// Not thread-safe and not reentrant: use one arena per thread — the engine
/// worker pool goes through solve_scratch_tls() — or one per EmbedSession.
/// Buffer contents between solves are unspecified; each solver phase
/// re-initializes exactly what it reads. The members are deliberately
/// public: they are internal workspaces shared by the core solvers, not a
/// stable API surface.
struct SolveScratch {
  // -- bit-packed node masks (FfcSolver arena solve) --
  BitVec active;    ///< nonfaulty nodes
  BitVec visited;   ///< nodes claimed by the component flood, then the walk

  // -- broadcast and component flood; both expand (n-1)-word blocks once --
  /// Broadcast rounds (distances); B* is the set of nodes the broadcast
  /// reaches (dist != kUnreached).
  std::vector<std::uint32_t> dist;
  std::vector<Word> frontier;       ///< broadcast level; the flood's stack
  std::vector<Word> frontier_next;  ///< next broadcast level
  /// Per (n-1)-word w: the smallest node with suffix w in the first
  /// broadcast round that reached one (kNoWord = block not expanded). It is
  /// the broadcast parent of every leader with prefix w (Step 1.2), and the
  /// exit node of T_w's parent necklace (Step 3).
  std::vector<Word> block_first;
  BitVec prefix_done;               ///< component flood: blocks expanded

  // -- FFC Steps 1.2-3 --
  std::vector<Word> reps_tmp;       ///< faulty-rep staging (sort + dedup)
  std::vector<Word> leader_of;      ///< Steps 1.2/3: leader per necklace index
  /// Steps 1.2/2: staged (from, to, label) necklace edges, bucketed by
  /// their from necklace into FfcResult's sorted order.
  std::vector<std::array<Word, 3>> edge_tmp;
  std::vector<std::uint32_t> edge_bucket;  ///< counting-sort cursor per necklace
  BitVec labels_seen;               ///< Step 2: labels whose class T_w is built
  std::vector<std::pair<Word, Word>> label_pairs;  ///< Step 2: one parent's (label, child rep)
  std::vector<Word> members_tmp;    ///< Step 2: one label class, sorted
  BitVec rerouted;                  ///< Step 3: exit nodes of D-edges
  std::vector<Word> reroute_to;     ///< Step 3: entry node, where rerouted is set

  // -- mixed-fault solve --
  BitVec faulty_neck;               ///< faulty flag per necklace index
  std::vector<Word> nodes_tmp;      ///< sorted distinct node faults
  std::vector<Word> edges_tmp;      ///< sorted distinct edge faults
  std::vector<Word> pullback_tmp;   ///< accumulated pull-back fault set

  // -- ring repair (RingSplicer) --
  std::vector<Word> ring_next;               ///< successor map (kNoWord = uncovered)
  std::vector<Word> ring_pred;               ///< predecessor map
  std::vector<std::uint32_t> ring_comp;      ///< cycle id per covered node
  std::vector<std::uint32_t> uf_parent;      ///< union-find over cycle ids
  std::vector<std::uint64_t> ring_comp_size; ///< per-cycle cover count
  std::vector<Word> delta_tmp;               ///< fault-set difference staging
  std::vector<Word> excised_tmp;             ///< reps retired by this repair
};

/// The calling thread's arena: what the scratch-less solve/repair entry
/// points use, giving each engine worker its own reusable buffers.
SolveScratch& solve_scratch_tls();

}  // namespace dbr::core
