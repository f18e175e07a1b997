#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "butterfly/butterfly.hpp"
#include "core/disjoint_hc.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"
#include "gf/field.hpp"

namespace dbr::core {

/// Fault-independent necklace structure of B(d,n): the minimal rotation of
/// every word plus the sorted necklace representatives. Shared by every FFC
/// solve on the instance, replacing the per-query O(n d^n) rotation scans.
struct NecklaceTable {
  std::vector<Word> min_rot;  ///< min_rotation(x) for every word x
  std::vector<Word> reps;     ///< sorted representatives of all necklaces
};

/// Precomputed Step-2 "label merge" structure of Section 2.2, shared by
/// every FFC-family solve on the instance: the necklace member lists
/// flattened into CSR form (members of necklace i occupy
/// members[member_begin[i], member_begin[i+1]) in rotation order from the
/// representative), the necklace index of every word, and the rotation
/// successor of every word. With these, Step 1.2 leader election walks a
/// CSR slice, and the Step-3 D-edge reroute reads "the node of [x] with
/// prefix w" off the solve's lookups (a child necklace's leader, or the
/// rotation successor of the class parent's broadcast sender) and takes its
/// right rotation as the node with suffix w. That node is unique: the build
/// checks that a.w and b.w never share a necklace (Section 2.2), i.e. that
/// each necklace's members have pairwise-distinct (n-1)-suffixes.
struct LabelMergeTable {
  std::vector<std::uint32_t> necklace_index;  ///< word -> index into NecklaceTable::reps
  std::vector<std::uint64_t> member_begin;    ///< CSR offsets; size reps + 1
  std::vector<Word> members;      ///< words grouped by necklace, rotation order
  std::vector<Word> rot_next;     ///< rotate_left(x, 1) for every word x

  /// Rotation period (member count) of necklace i.
  std::uint64_t period(std::uint32_t i) const {
    return member_begin[i + 1] - member_begin[i];
  }
};

/// The psi(d) pairwise disjoint Hamiltonian cycles of Proposition 3.2, plus
/// a flat index from edge word to the one family member traversing it.
/// Members are pairwise edge-disjoint (Proposition 3.1; the build checks
/// it), so each of the d^(n+1) edge words maps to at most one cycle, stored
/// in 2 bytes, and selecting the first member avoiding a fault set costs
/// O(f) lookups per candidate instead of a full O(psi * d^n) family scan.
struct PsiFamilyIndex {
  /// member_by_edge value of an edge no family member traverses.
  static constexpr std::uint16_t kNoMember = 0xffff;

  std::vector<SymbolCycle> cycles;  ///< disjoint_hamiltonian_cycles order
  std::vector<std::uint16_t> member_by_edge;  ///< edge word -> cycle index

  /// Index of the first cycle using none of the given edge words; equivalent
  /// to scanning `cycles` in order with avoids_edges. Allocates nothing.
  std::optional<std::size_t> first_avoiding(
      std::span<const Word> faulty_edge_words) const;
};

/// Immutable, shareable per-(base, n) context: everything the paper's
/// constructions compute that does not depend on the fault set. A solve
/// phase (solve_ffc, solve_edge_*, the butterfly lift) borrows a context and
/// performs only fault-dependent work, so distinct fault sets on the same
/// instance share all precompute.
///
/// Sections are built lazily on first use (each under its own call_once), so
/// a node-fault workload never pays for the edge-fault machinery and vice
/// versa. All accessors are safe to call concurrently; after construction
/// the context is logically const and never mutated.
class InstanceContext {
 public:
  /// Validates (base, n) exactly like WordSpace (d >= 2, n >= 1, d^(n+1)
  /// representable); throws precondition_error otherwise.
  InstanceContext(Digit base, unsigned n);

  InstanceContext(const InstanceContext&) = delete;
  InstanceContext& operator=(const InstanceContext&) = delete;

  static std::shared_ptr<const InstanceContext> make(Digit base, unsigned n);

  Digit base() const { return graph_.radix(); }
  unsigned tuple_length() const { return graph_.tuple_length(); }
  const WordSpace& words() const { return graph_.words(); }
  const DeBruijnDigraph& graph() const { return graph_; }

  /// Necklace decomposition behind the Chapter-2 FFC construction.
  const NecklaceTable& necklaces() const;

  /// Precomputed Step-2 label-merge tables (CSR necklace members, necklace
  /// index and rotation successor per word); built lazily on first use like
  /// every other section.
  const LabelMergeTable& label_merge() const;

  /// True when the Section-3.3 edge-fault constructions apply (n >= 2).
  bool supports_edge_faults() const { return words().length() >= 2; }

  /// Disjoint-HC family + flat edge-to-member index. Requires n >= 2.
  const PsiFamilyIndex& psi_family() const;

  /// The maximal-cycle machinery of Section 3.2.1 for one prime-power factor
  /// of `base` (the leaves of the phi-recursion of Proposition 3.3). The
  /// family and its GF(q) field are built once per factor and shared across
  /// solves. Requires n >= 2 and prime_power | base as a full prime-power
  /// factor.
  const MaximalCycleFamily& maximal_family(std::uint64_t prime_power) const;

  /// True when the Proposition 3.5 lift applies (gcd(base, n) = 1).
  bool supports_butterfly() const;

  /// Butterfly adjacency F(d,n) for the lift. Requires gcd(base, n) = 1.
  const ButterflyDigraph& butterfly() const;

 private:
  DeBruijnDigraph graph_;

  mutable std::once_flag necklace_once_;
  mutable NecklaceTable necklace_table_;

  mutable std::once_flag label_merge_once_;
  mutable LabelMergeTable label_merge_table_;

  mutable std::once_flag psi_once_;
  mutable PsiFamilyIndex psi_;

  mutable std::once_flag phi_once_;
  mutable std::vector<std::unique_ptr<gf::Field>> fields_;
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<MaximalCycleFamily>>
      families_;

  mutable std::once_flag butterfly_once_;
  mutable std::unique_ptr<ButterflyDigraph> butterfly_;
};

}  // namespace dbr::core
