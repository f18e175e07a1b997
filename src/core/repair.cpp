#include "core/repair.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/ffc.hpp"
#include "core/mixed_fault.hpp"
#include "core/succ_base.hpp"

namespace dbr::core {

namespace {

constexpr Word kAbsent = kNoWord;

/// Sorted-span set difference a \ b into a reusable scratch vector.
void difference_into(std::span<const Word> a, std::span<const Word> b,
                     std::vector<Word>& out) {
  out.clear();
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
}

/// True for the loop word a^(n+1); loop faults never constrain a ring of
/// length >= 2.
bool is_loop_edge(const WordSpace& ws, Word e) {
  const Digit a = static_cast<Digit>(e % ws.radix());
  return e / ws.radix() == ws.repeated(a);
}

/// True when any node of the necklace of `rep` is in the sorted fault list.
bool necklace_faulty(const WordSpace& ws, Word rep,
                     std::span<const Word> faults) {
  Word node = rep;
  const unsigned p = ws.period(rep);
  for (unsigned k = 0; k < p; ++k, node = ws.rotate_left(node, 1)) {
    if (std::binary_search(faults.begin(), faults.end(), node)) return true;
  }
  return false;
}

/// The editable successor/predecessor view of an FFC-style ring. Every
/// step of such a ring is the natural rotation pi(v) or a labeled reroute
/// exit -> entry with suffix(exit) = prefix(entry); within one necklace
/// the entry for a label is the rotation successor of the exit, which is
/// what makes whole-necklace excision and reinsertion purely local edits.
class RingSplicer {
 public:
  /// Borrows the ring maps and reconnect workspaces from `s`; the splicer
  /// must not outlive the scratch arena or share it with another splicer.
  RingSplicer(const InstanceContext& ctx, SolveScratch& s)
      : ws_(ctx.words()),
        shift_(ctx.words()),
        min_rot_(ctx.necklaces().min_rot),
        s_(s),
        next_(s.ring_next),
        pred_(s.ring_pred) {}

  /// Indexes the ring into successor/predecessor maps. False when the
  /// sequence is not a simple cycle of genuine B(d,n) edges.
  bool load(const NodeCycle& ring) {
    next_.assign(ws_.size(), kAbsent);
    pred_.assign(ws_.size(), kAbsent);
    cover_ = 0;
    const std::size_t k = ring.nodes.size();
    if (k == 0) return false;
    // Every node is some step's v, so range-checking v (and nodes[0] up
    // front) covers them all, and a repeated node repeats as a u, which
    // finds its successor already set.
    if (ring.nodes[0] >= ws_.size()) return false;
    for (std::size_t i = 0; i < k; ++i) {
      const Word u = ring.nodes[i];
      const Word v = ring.nodes[i + 1 < k ? i + 1 : 0];
      if (v >= ws_.size() || next_[u] != kAbsent) return false;
      if (!shift_.adjacent(u, v)) return false;  // not an edge
      next_[u] = v;
      pred_[v] = u;
    }
    cover_ = k;
    return true;
  }

  bool covered(Word v) const { return next_[v] != kAbsent; }
  Word next_of(Word v) const { return next_[v]; }
  std::uint64_t cover() const { return cover_; }
  Word rep_of(Word v) const { return min_rot_[v]; }

  /// Excises the whole necklace of `rep`. Every in-edge arrives at the
  /// rotation successor pi(e) of a rerouted exit e carrying e's label (the
  /// per-necklace label uniqueness of Section 2.2), so redirecting its
  /// source straight to e's old target is a genuine B(d,n) edge — both
  /// endpoints expose the same (n-1)-digit label. Natural steps die with
  /// the necklace. The redirects keep the successor map a permutation of
  /// the survivors but may split it into several cycles; reconnect()
  /// restores a single ring afterwards. False when the structure is not
  /// splice-shaped (partially covered necklace, missing in-edge, or an
  /// interior reroute).
  bool excise(Word rep) {
    const unsigned p = ws_.period(rep);
    Word node = rep;
    for (unsigned k = 0; k < p; ++k, node = ws_.rotate_left(node, 1)) {
      if (!covered(node)) return false;
    }
    node = rep;
    for (unsigned k = 0; k < p; ++k, node = ws_.rotate_left(node, 1)) {
      const Word entry = ws_.rotate_left(node, 1);
      const Word target = next_[node];
      if (target == entry) continue;  // natural rotation step
      const Word source = pred_[entry];
      if (source == kAbsent || min_rot_[source] == rep) return false;
      next_[source] = target;
      pred_[target] = source;
    }
    node = rep;
    for (unsigned k = 0; k < p; ++k) {
      const Word nxt = ws_.rotate_left(node, 1);
      next_[node] = kAbsent;
      pred_[node] = kAbsent;
      node = nxt;
    }
    cover_ -= p;
    return true;
  }

  /// Lays the revived necklace of `rep` down as its own natural rotation
  /// cycle (pi is a genuine edge, so the necklace closes on itself); the
  /// following reconnect() pass merges it into the main ring through any
  /// shared edge label. False when a node of the necklace is already
  /// covered (not insertable).
  bool lay_down(Word rep) {
    const unsigned p = ws_.period(rep);
    Word node = rep;
    for (unsigned k = 0; k < p; ++k, node = ws_.rotate_left(node, 1)) {
      if (covered(node)) return false;
    }
    node = rep;
    for (unsigned k = 0; k < p; ++k) {
      const Word nxt = ws_.rotate_left(node, 1);
      next_[node] = nxt;
      pred_[nxt] = node;
      node = nxt;
    }
    cover_ += p;
    return true;
  }

  /// Merges the permutation's disjoint cycles back into one ring with the
  /// FFC Step-2 label move: two edges sharing label w (every De Bruijn
  /// edge u -> v carries the label suffix(u) = prefix(v)) can be
  /// cross-stitched — a -> a', b -> b' becomes a -> b', b -> a' — which
  /// stays on genuine edges and concatenates their cycles. One ascending
  /// pass with a per-label anchor unites everything label-connected;
  /// whatever remains separate is physically unreachable from the main
  /// ring (e.g. the all-a word once its neighboring necklace dies), so it
  /// is dropped exactly as the cold solve retreats to the largest
  /// surviving component — the envelope check downstream decides whether
  /// the shrunken ring is still servable. False only on an empty cover.
  bool reconnect() {
    if (cover_ == 0) return false;
    constexpr std::uint32_t kNoComp = ~std::uint32_t{0};
    std::vector<std::uint32_t>& comp = s_.ring_comp;
    comp.assign(ws_.size(), kNoComp);
    std::uint32_t components = 0;
    // Label each cycle; the scan stops once all cover_ nodes are labeled.
    std::uint64_t labeled = 0;
    for (Word v = first_covered(); labeled < cover_; ++v) {
      if (!covered(v) || comp[v] != kNoComp) continue;
      Word cur = v;
      do {
        comp[cur] = components;
        cur = next_[cur];
        ++labeled;
      } while (cur != v);
      ++components;
    }
    if (components == 1) return true;
    std::vector<std::uint32_t>& parent = s_.uf_parent;
    parent.resize(components);
    for (std::uint32_t c = 0; c < components; ++c) parent[c] = c;
    const auto find = [&parent](std::uint32_t c) {
      while (parent[c] != c) c = parent[c] = parent[parent[c]];
      return c;
    };
    // The nodes with label w are the d words b.w = b * d^(n-1) + w, so the
    // ascending pass meets them block by block. A label's anchor is its
    // smallest covered node, found by probing the earlier blocks; block 0
    // holds only anchors, so the pass starts at block 1.
    const Word block = shift_.suffix_count;
    std::uint32_t merged = components;
    for (Word u = block; u < ws_.size() && merged > 1; ++u) {
      if (!covered(u)) continue;
      Word a = shift_.suffix(u);
      while (a < u && !covered(a)) a += block;
      if (a == u) continue;  // u anchors its label
      const std::uint32_t ra = find(comp[a]);
      const std::uint32_t ru = find(comp[u]);
      if (ra == ru) continue;
      parent[ru] = ra;
      --merged;
      std::swap(next_[a], next_[u]);  // cross-stitch on the shared label
      pred_[next_[a]] = a;
      pred_[next_[u]] = u;
    }
    if (merged == 1) return true;
    // Keep the largest label-component (ties toward whichever reaches the
    // shared maximum count first in the ascending scan — deterministic).
    std::vector<std::uint64_t>& size = s_.ring_comp_size;
    size.assign(components, 0);
    std::uint32_t best = kNoComp;
    for (Word v = 0; v < ws_.size(); ++v) {
      if (!covered(v)) continue;
      const std::uint32_t root = find(comp[v]);
      ++size[root];
      if (best == kNoComp || size[root] > size[best]) best = root;
    }
    for (Word v = 0; v < ws_.size(); ++v) {
      if (!covered(v) || find(comp[v]) == best) continue;
      next_[v] = kAbsent;
      pred_[v] = kAbsent;
      --cover_;
    }
    return true;
  }

  /// Walks the spliced successor map from the smallest covered node. The
  /// map is a permutation of the cover, so the walk closes; it must close
  /// after exactly cover() steps (one cycle) without touching a forbidden
  /// node or traversing a forbidden edge word. Both forbidden lists must
  /// be sorted (the canonical fault sets are).
  std::optional<NodeCycle> extract(std::span<const Word> forbidden_nodes,
                                   std::span<const Word> forbidden_edges,
                                   RepairFallback* why) const {
    if (cover_ == 0) {
      *why = RepairFallback::kRingVanished;
      return std::nullopt;
    }
    const Word start = first_covered();
    // The walk visits covered nodes and takes their next_ steps only, so
    // it can meet a forbidden node (edge) only when one is covered
    // (traversed): checked once here, which keeps the per-step searches
    // off the common walk.
    const bool check_nodes = std::any_of(
        forbidden_nodes.begin(), forbidden_nodes.end(),
        [this](Word f) { return f < ws_.size() && covered(f); });
    const bool check_edges = std::any_of(
        forbidden_edges.begin(), forbidden_edges.end(), [this](Word e) {
          const Word u = e / shift_.d;
          return u < ws_.size() && covered(u) &&
                 shift_.tail(next_[u]) == e % shift_.d;
        });
    NodeCycle out;
    out.nodes.reserve(cover_);
    Word cur = start;
    for (std::uint64_t step = 0; step < cover_; ++step) {
      if (!covered(cur)) {
        *why = RepairFallback::kMalformedRing;
        return std::nullopt;
      }
      if (check_nodes && std::binary_search(forbidden_nodes.begin(),
                                            forbidden_nodes.end(), cur)) {
        *why = RepairFallback::kTouchesFault;
        return std::nullopt;
      }
      const Word nxt = next_[cur];
      if (check_edges &&
          std::binary_search(forbidden_edges.begin(), forbidden_edges.end(),
                             ws_.edge_word(cur, shift_.tail(nxt)))) {
        *why = RepairFallback::kTouchesFault;
        return std::nullopt;
      }
      out.nodes.push_back(cur);
      cur = nxt;
      if (cur == start && step + 1 < cover_) {
        *why = RepairFallback::kDisconnected;
        return std::nullopt;
      }
    }
    if (cur != start) {
      *why = RepairFallback::kDisconnected;
      return std::nullopt;
    }
    *why = RepairFallback::kNone;
    return out;
  }

 private:
  /// The smallest covered node; cover_ must be nonzero.
  Word first_covered() const {
    Word v = 0;
    while (!covered(v)) ++v;
    return v;
  }

  const WordSpace& ws_;
  const SuccBase shift_;              // division-free suffix/tail/adjacency
  const std::vector<Word>& min_rot_;  // borrowed from the context
  SolveScratch& s_;                   // reconnect workspaces
  std::vector<Word>& next_;           // scratch ring_next; kAbsent = not covered
  std::vector<Word>& pred_;           // scratch ring_pred
  std::uint64_t cover_ = 0;
};

/// Shared no-op repair for De Bruijn Hamiltonian rings: one allocation-free
/// scan over the ring's edge words, binary-searching each against the
/// (small, sorted) fault list. Succeeds as `unchanged` iff the ring
/// traverses none of them; kMalformedRing on out-of-range nodes.
void scan_hamiltonian(const WordSpace& ws, const NodeCycle& ring,
                      std::span<const Word> new_faults, RepairOutcome* out) {
  const SuccBase shift(ws);
  const std::size_t k = ring.nodes.size();
  for (std::size_t i = 0; i < k; ++i) {
    const Word u = ring.nodes[i];
    const Word v = ring.nodes[i + 1 < k ? i + 1 : 0];
    if (u >= ws.size() || v >= ws.size()) {
      out->fallback = RepairFallback::kMalformedRing;
      return;
    }
    if (new_faults.empty()) continue;  // still validating node range
    const Word e = ws.edge_word(u, shift.tail(v));
    if (std::binary_search(new_faults.begin(), new_faults.end(), e)) {
      out->fallback = RepairFallback::kCrossesFamily;
      return;
    }
  }
  out->unchanged = true;
}

}  // namespace

const char* to_string(RepairFallback f) {
  switch (f) {
    case RepairFallback::kNone: return "none";
    case RepairFallback::kMalformedRing: return "malformed_ring";
    case RepairFallback::kRingVanished: return "ring_vanished";
    case RepairFallback::kDisconnected: return "disconnected";
    case RepairFallback::kEnvelope: return "envelope";
    case RepairFallback::kCrossesFamily: return "crosses_family";
    case RepairFallback::kTouchesFault: return "touches_fault";
  }
  return "unknown";
}

RepairOutcome repair_node_ring(const InstanceContext& ctx,
                               const NodeCycle& old_ring,
                               std::span<const Word> old_faults,
                               std::span<const Word> new_faults) {
  return repair_node_ring(ctx, old_ring, old_faults, new_faults,
                          solve_scratch_tls());
}

RepairOutcome repair_node_ring(const InstanceContext& ctx,
                               const NodeCycle& old_ring,
                               std::span<const Word> old_faults,
                               std::span<const Word> new_faults,
                               SolveScratch& s) {
  const WordSpace& ws = ctx.words();
  RepairOutcome out;
  const auto [lo, hi] =
      ffc_cycle_length_bounds(ws.radix(), ws.length(), new_faults.size());
  out.lower_bound = lo;
  out.upper_bound = hi;

  RingSplicer splicer(ctx, s);
  if (!splicer.load(old_ring)) {
    out.fallback = RepairFallback::kMalformedRing;
    return out;
  }

  difference_into(new_faults, old_faults, s.delta_tmp);
  for (Word f : s.delta_tmp) {
    if (f >= ws.size()) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    const Word rep = splicer.rep_of(f);
    if (!splicer.covered(rep)) continue;  // necklace already dead/uncovered
    if (!splicer.excise(rep)) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    ++out.spliced_necklaces;
  }
  difference_into(old_faults, new_faults, s.delta_tmp);
  for (Word f : s.delta_tmp) {
    if (f >= ws.size()) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    const Word rep = splicer.rep_of(f);
    if (splicer.covered(rep)) continue;  // revived by an earlier clear
    if (necklace_faulty(ws, rep, new_faults)) continue;  // still pinned down
    if (!splicer.lay_down(rep)) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    ++out.spliced_necklaces;
  }

  if (!splicer.reconnect()) {
    out.fallback = splicer.cover() == 0 ? RepairFallback::kRingVanished
                                        : RepairFallback::kDisconnected;
    return out;
  }
  RepairFallback why = RepairFallback::kNone;
  std::optional<NodeCycle> ring = splicer.extract(new_faults, {}, &why);
  if (!ring) {
    out.fallback = why;
    return out;
  }
  if (ring->nodes.size() < lo || ring->nodes.size() > hi) {
    out.fallback = RepairFallback::kEnvelope;
    return out;
  }
  out.ring = std::move(*ring);
  return out;
}

RepairOutcome repair_edge_ring(const InstanceContext& ctx,
                               const NodeCycle& old_ring,
                               std::span<const Word> new_faults) {
  const WordSpace& ws = ctx.words();
  RepairOutcome out;
  out.lower_bound = ws.size();
  out.upper_bound = ws.size();
  if (old_ring.nodes.size() != ws.size()) {
    out.fallback = RepairFallback::kMalformedRing;
    return out;
  }
  scan_hamiltonian(ws, old_ring, new_faults, &out);
  return out;
}

RepairOutcome repair_butterfly_ring(const InstanceContext& ctx,
                                    const NodeCycle& old_ring,
                                    std::span<const Word> new_faults) {
  const WordSpace& ws = ctx.words();
  const unsigned n = ws.length();
  const Word columns = ws.size();
  const std::uint64_t total = static_cast<std::uint64_t>(n) * columns;
  RepairOutcome out;
  out.lower_bound = total;
  out.upper_bound = total;
  if (old_ring.nodes.size() != total) {
    out.fallback = RepairFallback::kMalformedRing;
    return out;
  }
  // Lemma 3.8 pull-back: the butterfly edge S_U^j -> S_V^{j+1} implements
  // the De Bruijn edge U -> V with U = pi^{lu}(cu), V = pi^{lv}(cv).
  for (std::size_t i = 0; i < old_ring.nodes.size(); ++i) {
    const Word a = old_ring.nodes[i];
    const Word b = old_ring.nodes[(i + 1) % old_ring.nodes.size()];
    if (a >= total || b >= total) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    const unsigned lu = static_cast<unsigned>(a / columns);
    const unsigned lv = static_cast<unsigned>(b / columns);
    if (lv != (lu + 1) % n) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    const Word u = ws.rotate_left(a % columns, lu);
    const Word v = ws.rotate_left(b % columns, lv);
    if (ws.suffix(u) != ws.prefix(v)) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    if (std::binary_search(new_faults.begin(), new_faults.end(),
                           ws.edge_word(u, ws.tail(v)))) {
      out.fallback = RepairFallback::kCrossesFamily;
      return out;
    }
  }
  out.unchanged = true;
  return out;
}

RepairOutcome repair_mixed_ring(const InstanceContext& ctx,
                                const NodeCycle& old_ring,
                                std::span<const Word> old_node_faults,
                                std::span<const Word> old_edge_faults,
                                std::span<const Word> new_node_faults,
                                std::span<const Word> new_edge_faults) {
  return repair_mixed_ring(ctx, old_ring, old_node_faults, old_edge_faults,
                           new_node_faults, new_edge_faults,
                           solve_scratch_tls());
}

RepairOutcome repair_mixed_ring(const InstanceContext& ctx,
                                const NodeCycle& old_ring,
                                std::span<const Word> old_node_faults,
                                std::span<const Word> old_edge_faults,
                                std::span<const Word> new_node_faults,
                                std::span<const Word> new_edge_faults,
                                SolveScratch& s) {
  const WordSpace& ws = ctx.words();
  RepairOutcome out;
  const auto [lo, hi] = mixed_ring_length_bounds(
      ws.radix(), ws.length(), new_node_faults.size(),
      countable_mixed_edge_faults(ws, new_node_faults, new_edge_faults));
  out.lower_bound = lo;
  out.upper_bound = hi;

  // Hamiltonian-route ring (node-free set served by Section 3.3): only an
  // avoided-edge delta stays local; node faults or a traversed cut need
  // the other route resp. another family member — a full re-solve.
  if (old_ring.nodes.size() == ws.size()) {
    if (!old_node_faults.empty()) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    if (!new_node_faults.empty()) {
      out.fallback = RepairFallback::kCrossesFamily;
      return out;
    }
    scan_hamiltonian(ws, old_ring, new_edge_faults, &out);
    return out;
  }

  // FFC pull-back ring: necklace splicing, with newly traversed cuts
  // charged to their cheaper endpoint necklace (the solver's rule).
  RingSplicer splicer(ctx, s);
  if (!splicer.load(old_ring)) {
    out.fallback = RepairFallback::kMalformedRing;
    return out;
  }

  // Reps this repair retired, kept sorted for the revival pass below.
  std::vector<Word>& excised = s.excised_tmp;
  excised.clear();
  const auto retire_rep = [&excised](Word rep) {
    const auto it = std::lower_bound(excised.begin(), excised.end(), rep);
    if (it == excised.end() || *it != rep) excised.insert(it, rep);
  };
  difference_into(new_node_faults, old_node_faults, s.delta_tmp);
  for (Word f : s.delta_tmp) {
    if (f >= ws.size()) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    const Word rep = splicer.rep_of(f);
    if (!splicer.covered(rep)) continue;
    if (!splicer.excise(rep)) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    retire_rep(rep);
    ++out.spliced_necklaces;
  }
  difference_into(new_edge_faults, old_edge_faults, s.delta_tmp);
  for (Word e : s.delta_tmp) {
    if (e >= ws.edge_word_count()) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    if (is_loop_edge(ws, e)) continue;
    const auto [u, v] = ws.edge_endpoints(e);
    if (!splicer.covered(u) || splicer.next_of(u) != v) continue;  // avoided
    const Word ru = splicer.rep_of(u);
    const Word rv = splicer.rep_of(v);
    const unsigned pu = ws.period(ru);
    const unsigned pv = ws.period(rv);
    const Word pick = (pv < pu || (pv == pu && rv < ru)) ? rv : ru;
    if (!splicer.excise(pick)) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    retire_rep(pick);
    ++out.spliced_necklaces;
  }
  difference_into(old_node_faults, new_node_faults, s.delta_tmp);
  for (Word f : s.delta_tmp) {
    if (f >= ws.size()) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    const Word rep = splicer.rep_of(f);
    if (splicer.covered(rep) ||
        std::binary_search(excised.begin(), excised.end(), rep)) {
      continue;
    }
    if (necklace_faulty(ws, rep, new_node_faults)) continue;
    // Re-attach the revived router necklace; a resurfaced cut inside it is
    // caught by the forbidden-edge check on the final walk.
    if (!splicer.lay_down(rep)) {
      out.fallback = RepairFallback::kMalformedRing;
      return out;
    }
    ++out.spliced_necklaces;
  }

  if (!splicer.reconnect()) {
    out.fallback = splicer.cover() == 0 ? RepairFallback::kRingVanished
                                        : RepairFallback::kDisconnected;
    return out;
  }
  RepairFallback why = RepairFallback::kNone;
  std::optional<NodeCycle> ring =
      splicer.extract(new_node_faults, new_edge_faults, &why);
  if (!ring) {
    out.fallback = why;
    return out;
  }
  if (ring->nodes.size() < lo || ring->nodes.size() > hi) {
    out.fallback = RepairFallback::kEnvelope;
    return out;
  }
  out.ring = std::move(*ring);
  return out;
}

}  // namespace dbr::core
