#include "core/mixed_fault.hpp"

#include <algorithm>

#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "util/require.hpp"

namespace dbr::core {

namespace {

std::vector<Word> sorted_distinct(std::span<const Word> in) {
  std::vector<Word> out(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// sorted_distinct into a reusable scratch vector (no allocation in steady
/// state).
void sorted_distinct_into(std::span<const Word> in, std::vector<Word>& out) {
  out.assign(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// True for the loop word a^(n+1) (the edge a^n -> a^n). Loop faults are
/// harmless to any ring of length >= 2.
bool is_loop_edge(const WordSpace& ws, Word e) {
  const Digit a = static_cast<Digit>(e % ws.radix());
  return e / ws.radix() == ws.repeated(a);
}

}  // namespace

const char* to_string(MixedRoute r) {
  switch (r) {
    case MixedRoute::kNone: return "none";
    case MixedRoute::kHamiltonian: return "hamiltonian";
    case MixedRoute::kFfcPullback: return "ffc_pullback";
  }
  return "unknown";
}

std::uint64_t countable_mixed_edge_faults(const WordSpace& ws,
                                          std::span<const Word> faulty_nodes,
                                          std::span<const Word> faulty_edge_words) {
  const std::vector<Word> nodes = sorted_distinct(faulty_nodes);
  const std::vector<Word> edges = sorted_distinct(faulty_edge_words);
  std::uint64_t count = 0;
  for (Word e : edges) {
    if (is_loop_edge(ws, e)) continue;
    const auto [u, v] = ws.edge_endpoints(e);
    if (std::binary_search(nodes.begin(), nodes.end(), u) ||
        std::binary_search(nodes.begin(), nodes.end(), v)) {
      continue;  // dominated: a node-avoiding ring never traverses it
    }
    ++count;
  }
  return count;
}

std::pair<std::uint64_t, std::uint64_t> mixed_ring_length_bounds(
    Digit d, unsigned n, std::uint64_t distinct_node_faults,
    std::uint64_t countable_edge_faults) {
  const std::uint64_t size = WordSpace(d, n).size();
  const std::uint64_t upper =
      distinct_node_faults >= size ? 0 : size - distinct_node_faults;
  // Pull-back guarantee: the Proposition 2.2/2.3 node envelope applied to
  // the combined closure (each charged edge costs at most one endpoint).
  std::uint64_t lower =
      ffc_cycle_length_bounds(d, n, distinct_node_faults + countable_edge_faults)
          .first;
  // Hamiltonian guarantee: with no node faults and the edges within the
  // Proposition 3.4 budget, the Section 3.3 constructions always embed.
  if (distinct_node_faults == 0 &&
      countable_edge_faults <= max_tolerable_edge_faults(d)) {
    lower = size;
  }
  return {lower, upper};
}

MixedResult solve_mixed(const InstanceContext& ctx,
                        std::span<const Word> faulty_nodes,
                        std::span<const Word> faulty_edge_words) {
  return solve_mixed(ctx, faulty_nodes, faulty_edge_words,
                     solve_scratch_tls());
}

MixedResult solve_mixed(const InstanceContext& ctx,
                        std::span<const Word> faulty_nodes,
                        std::span<const Word> faulty_edge_words,
                        SolveScratch& s) {
  const WordSpace& ws = ctx.words();
  require(ws.length() >= 2, "mixed-fault solve requires n >= 2");
  sorted_distinct_into(faulty_nodes, s.nodes_tmp);
  sorted_distinct_into(faulty_edge_words, s.edges_tmp);
  const std::vector<Word>& nodes = s.nodes_tmp;
  const std::vector<Word>& edges = s.edges_tmp;
  for (Word v : nodes) {
    require_parts(v < ws.size(), "faulty node word ", v, " out of range");
  }
  for (Word e : edges) {
    require_parts(e < ws.edge_word_count(), "faulty edge word ", e,
                  " out of range");
  }

  MixedResult out;
  // Hamiltonian route: a node-free fault set is exactly the Section 3.3
  // problem. (With any node fault this route is closed: a Hamiltonian
  // cycle visits every node, so it cannot avoid one.)
  if (nodes.empty()) {
    if (const std::optional<SymbolCycle> hc = solve_edge_auto(ctx, edges)) {
      out.cycle = to_node_cycle(ws, *hc);
      out.route = MixedRoute::kHamiltonian;
      return out;
    }
  }

  // FFC pull-back route. Track the faulty necklaces and how many nodes
  // their removal costs, exactly as the FFC excision will see them; a flat
  // per-necklace bit replaces the reference unordered_set of reps.
  const NecklaceTable& necklaces = ctx.necklaces();
  const LabelMergeTable& lm = ctx.label_merge();
  s.faulty_neck.assign(necklaces.reps.size(), false);
  std::uint64_t removed = 0;
  const auto retire = [&](Word v) {
    const std::uint32_t i = lm.necklace_index[v];
    if (!s.faulty_neck.test(i)) {
      s.faulty_neck.set(i);
      removed += lm.period(i);
    }
  };
  for (Word v : nodes) retire(v);
  // Mirrors the FFC request contract: a request whose own faulty necklaces
  // cover B(d,n) is invalid, not merely unembeddable.
  require(removed < ws.size(), "faulty necklaces cover every node of B(d,n)");

  std::vector<Word>& pullback = s.pullback_tmp;
  pullback.assign(nodes.begin(), nodes.end());
  for (Word e : edges) {
    if (is_loop_edge(ws, e)) continue;
    const auto [u, v] = ws.edge_endpoints(e);
    const std::uint32_t iu = lm.necklace_index[u];
    const std::uint32_t iv = lm.necklace_index[v];
    if (s.faulty_neck.test(iu) || s.faulty_neck.test(iv)) {
      continue;  // an endpoint's necklace is already excised
    }
    // Charge the endpoint whose necklace removes fewer nodes (smaller
    // rotation period); ties toward the smaller representative, so the
    // choice is presentation-independent.
    const Word ru = necklaces.min_rot[u];
    const Word rv = necklaces.min_rot[v];
    const std::uint64_t pu = lm.period(iu);
    const std::uint64_t pv = lm.period(iv);
    const Word pick = (pv < pu || (pv == pu && rv < ru)) ? v : u;
    pullback.push_back(pick);
    out.pulled_back.push_back(pick);
    retire(pick);
  }

  for (;;) {
    out.pullback_node_faults = pullback.size();
    if (removed >= ws.size()) {
      out.route = MixedRoute::kNone;  // the pull-back consumed every node
      return out;
    }
    FfcResult ffc = solve_ffc(ctx, pullback, s);
    if (ffc.cycle.length() == 1) {
      // A single-node ring a^n closes over the loop word a^(n+1); if that
      // loop is faulty the ring is unusable, so retire the node and retry
      // in what remains.
      const Word v = ffc.cycle.nodes.front();
      const Word loop = ws.edge_word(v, ws.tail(v));
      if (std::binary_search(edges.begin(), edges.end(), loop)) {
        pullback.push_back(v);
        retire(v);
        continue;
      }
    }
    out.cycle = std::move(ffc.cycle);
    out.route = MixedRoute::kFfcPullback;
    return out;
  }
}

}  // namespace dbr::core
