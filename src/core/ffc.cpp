#include "core/ffc.hpp"

#include <algorithm>

#include "core/succ_base.hpp"
#include "graph/algorithms.hpp"
#include "util/require.hpp"

namespace dbr::core {

namespace {

/// Implicit reversal of B(d,n): successors become shift_prepend moves.
struct ReverseDeBruijn {
  const DeBruijnDigraph* g;

  NodeId num_nodes() const { return g->num_nodes(); }

  template <typename Fn>
  void for_each_successor(NodeId v, Fn&& fn) const {
    for (Digit a = 0; a < g->radix(); ++a) fn(g->words().shift_prepend(v, a));
  }
};

/// Moves the staged necklace edges s.edge_tmp into `out` in LabeledEdge
/// order, (from, to, label) ascending, without a global sort: a counting
/// sort on the from necklace's index (indices ascend with the reps), then
/// each from bucket, a handful of edges, sorted on its own.
void sort_necklace_edges(const LabelMergeTable& lm, std::size_t necklaces,
                         SolveScratch& s, std::vector<LabeledEdge>& out) {
  std::vector<std::uint32_t>& cursor = s.edge_bucket;
  cursor.assign(necklaces + 1, 0);
  for (const auto& e : s.edge_tmp) ++cursor[lm.necklace_index[e[0]] + 1];
  for (std::size_t b = 1; b <= necklaces; ++b) cursor[b] += cursor[b - 1];
  out.resize(s.edge_tmp.size());
  for (const auto& [from, to, label] : s.edge_tmp) {
    out[cursor[lm.necklace_index[from]]++] = {from, to, label};
  }
  // cursor[b] now ends bucket b, which begins where bucket b - 1 ends.
  std::size_t begin = 0;
  for (std::size_t b = 0; b < necklaces; ++b) {
    const std::size_t end = cursor[b];
    if (end - begin > 1) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(end));
    }
    begin = end;
  }
}

}  // namespace

FfcSolver::FfcSolver(DeBruijnDigraph graph) : graph_(std::move(graph)) {}

FfcSolver::FfcSolver(const InstanceContext& ctx)
    : graph_(ctx.graph()), necklaces_(&ctx.necklaces()), ctx_(&ctx) {}

std::vector<bool> FfcSolver::active_mask(std::span<const Word> faulty_nodes) const {
  const WordSpace& ws = graph_.words();
  std::vector<bool> active(ws.size(), true);
  for (Word rep : necklace_reps_of(ws, faulty_nodes)) {
    for (Word v : necklace_nodes(ws, rep)) active[v] = false;
  }
  return active;
}

std::vector<bool> FfcSolver::component_of(const std::vector<bool>& active,
                                          Word root) const {
  require(root < graph_.num_nodes(), "root out of range");
  require(active[root], "root must be a nonfaulty node");
  const SubgraphView<DeBruijnDigraph> fwd(graph_, active);
  const auto forward = bfs(fwd, root, [&](NodeId v) { return active[v]; });
  const ReverseDeBruijn rev{&graph_};
  const SubgraphView<ReverseDeBruijn> bwd(rev, active);
  const auto backward = bfs(bwd, root, [&](NodeId v) { return active[v]; });
  std::vector<bool> comp(graph_.num_nodes(), false);
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    comp[v] = forward.dist[v] != kUnreached && backward.dist[v] != kUnreached;
  }
  return comp;
}

std::pair<Word, std::uint64_t> FfcSolver::largest_component_root(
    const std::vector<bool>& active) const {
  require(active.size() == graph_.num_nodes(), "active mask size mismatch");
  const SubgraphView<DeBruijnDigraph> view(graph_, active);
  const auto scc = strongly_connected_components(view);
  std::vector<std::uint64_t> size(scc.count, 0);
  std::vector<Word> min_node(scc.count, kNoParent);
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (!active[v]) continue;
    const auto c = scc.component[v];
    ++size[c];
    if (min_node[c] == kNoParent) min_node[c] = v;  // ascending scan
  }
  Word best_root = kNoParent;
  std::uint64_t best_size = 0;
  for (std::uint64_t c = 0; c < scc.count; ++c) {
    if (min_node[c] == kNoParent) continue;
    if (size[c] > best_size ||
        (size[c] == best_size && min_node[c] < best_root)) {
      best_size = size[c];
      best_root = min_node[c];
    }
  }
  require(best_root != kNoParent, "all nodes are faulty");
  return {best_root, best_size};
}

NecklaceAdjacency FfcSolver::necklace_adjacency(const std::vector<bool>& active) const {
  const WordSpace& ws = graph_.words();
  require(active.size() == ws.size(), "active mask size mismatch");
  NecklaceAdjacency out;
  if (necklaces_ != nullptr) {
    // The context already stores every representative in ascending order;
    // filtering it by the mask yields exactly the set the full scan would
    // ({x : active[x] and min_rot(x) == x} == {rep : active[rep]}) without
    // rescanning all d^n words.
    for (Word rep : necklaces_->reps) {
      if (active[rep]) out.reps.push_back(rep);
    }
  } else {
    for (Word x = 0; x < ws.size(); ++x) {
      if (active[x] && min_rot(x) == x) out.reps.push_back(x);
    }
  }
  // For every (n-1)-digit value w, the active nodes of the form a.w sit in
  // pairwise-distinct necklaces; each unordered pair yields two antiparallel
  // w-labeled edges.
  const Word suffix_count = ws.size() / ws.radix();
  std::vector<Word> reps_for_w;
  for (Word w = 0; w < suffix_count; ++w) {
    reps_for_w.clear();
    for (Digit a = 0; a < ws.radix(); ++a) {
      const Word node = ws.compose_prefix(a, w);
      if (active[node]) reps_for_w.push_back(min_rot(node));
    }
    std::sort(reps_for_w.begin(), reps_for_w.end());
    ensure(std::adjacent_find(reps_for_w.begin(), reps_for_w.end()) ==
               reps_for_w.end(),
           "a.w and b.w cannot share a necklace (Section 2.2)");
    for (std::size_t i = 0; i < reps_for_w.size(); ++i) {
      for (std::size_t j = 0; j < reps_for_w.size(); ++j) {
        if (i != j) out.edges.push_back({reps_for_w[i], reps_for_w[j], w});
      }
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

FfcResult FfcSolver::solve(std::span<const Word> faulty_nodes,
                           const FfcOptions& options) const {
  const WordSpace& ws = graph_.words();
  FfcResult result;
  result.faulty_necklace_reps = necklace_reps_of(ws, faulty_nodes);
  result.faulty_node_count = necklace_node_count(ws, result.faulty_necklace_reps);
  const std::vector<bool> active = active_mask(faulty_nodes);

  // --- Choose the distinguished node R and its component B*. ---
  Word root;
  if (options.root.has_value()) {
    require(*options.root < ws.size(), "root out of range");
    require(active[*options.root], "requested root lies on a faulty necklace");
    root = min_rot(*options.root);  // ensure N(R) == [R]
  } else {
    root = largest_component_root(active).first;
  }
  const std::vector<bool> comp = component_of(active, root);
  ensure(comp[root], "root must belong to its own component");
  result.root = root;

  // --- Step 1.1: broadcast tree T' (BFS with min-predecessor tie-break). ---
  const SubgraphView<DeBruijnDigraph> view(graph_, comp);
  const auto tree = bfs(view, root, [&](NodeId v) { return comp[v]; });

  // --- Necklaces of B* and their leaders. ---
  std::uint64_t comp_size = 0;
  std::vector<Word> comp_reps;
  for (Word x = 0; x < ws.size(); ++x) {
    if (!comp[x]) continue;
    ++comp_size;
    ensure(tree.dist[x] != kUnreached,
           "broadcast must reach every node of the strongly connected B*");
    if (min_rot(x) == x) comp_reps.push_back(x);
  }
  result.bstar_size = comp_size;
  result.root_eccentricity = tree.eccentricity();
  result.necklace_count = comp_reps.size();
  const Word root_rep = min_rot(root);
  ensure(root_rep == root, "root is canonical by construction");

  // --- Step 1.2: spanning tree T of N*. For each necklace choose the leader
  // Y (first node to receive M; ties toward the smaller id); the tree edge
  // enters at Y with label w = first n-1 digits of Y, from the necklace of
  // Y's broadcast parent. ---
  for (Word rep : comp_reps) {
    if (rep == root_rep) continue;
    Word leader = kNoParent;
    std::uint32_t best_dist = kUnreached;
    for (Word v : necklace_nodes(ws, rep)) {
      if (tree.dist[v] < best_dist ||
          (tree.dist[v] == best_dist && v < leader)) {
        best_dist = tree.dist[v];
        leader = v;
      }
    }
    ensure(leader != kNoParent, "every component necklace has a leader");
    const Word parent = tree.parent[leader];
    ensure(parent != kNoParent, "non-root leader must have a broadcast parent");
    const Word parent_rep = min_rot(parent);
    ensure(parent_rep != rep, "leader's parent lies in a different necklace");
    result.tree_edges.push_back({parent_rep, rep, ws.prefix(leader)});
  }
  std::sort(result.tree_edges.begin(), result.tree_edges.end());

  // --- Step 2: modify each label class T_w (a height-one star) into a
  // cycle ordered by necklace representative with wrap-around. ---
  std::unordered_map<Word, std::vector<Word>> members_by_label;
  std::unordered_map<Word, Word> parent_by_label;
  for (const LabeledEdge& e : result.tree_edges) {
    auto [it, inserted] = parent_by_label.try_emplace(e.label, e.from);
    ensure(it->second == e.from,
           "T_w must have a common parent (height-one property, Step 1.2)");
    members_by_label[e.label].push_back(e.to);
  }
  for (auto& [label, members] : members_by_label) {
    members.push_back(parent_by_label.at(label));
    std::sort(members.begin(), members.end());
    for (std::size_t i = 0; i < members.size(); ++i) {
      result.modified_edges.push_back(
          {members[i], members[(i + 1) % members.size()], label});
    }
  }
  std::sort(result.modified_edges.begin(), result.modified_edges.end());

  // --- Step 3: successor rule. A D-edge ([x] --w--> [y]) reroutes the exit
  // node of [x] with suffix w to the entry node of [y] with prefix w; all
  // other nodes follow their necklace successor. ---
  std::unordered_map<Word, Word> reroute;  // exit node -> entry node
  for (const LabeledEdge& e : result.modified_edges) {
    Word exit_node = kNoParent, entry_node = kNoParent;
    for (Word v : necklace_nodes(ws, e.from)) {
      if (ws.suffix(v) == e.label) {
        ensure(exit_node == kNoParent, "exit node is unique per label");
        exit_node = v;
      }
    }
    for (Word v : necklace_nodes(ws, e.to)) {
      if (ws.prefix(v) == e.label) {
        ensure(entry_node == kNoParent, "entry node is unique per label");
        entry_node = v;
      }
    }
    ensure(exit_node != kNoParent && entry_node != kNoParent,
           "both endpoints of a D-edge expose the label");
    const bool inserted = reroute.emplace(exit_node, entry_node).second;
    ensure(inserted, "each node is rerouted by at most one D-edge");
  }

  // --- Walk H from the root. ---
  result.cycle.nodes.reserve(comp_size);
  std::vector<bool> visited(ws.size(), false);
  Word cur = root;
  for (std::uint64_t step = 0; step < comp_size; ++step) {
    ensure(comp[cur] && !visited[cur], "H must stay in B* and not revisit");
    visited[cur] = true;
    result.cycle.nodes.push_back(cur);
    const auto it = reroute.find(cur);
    cur = it != reroute.end() ? it->second : ws.rotate_left(cur, 1);
  }
  ensure(cur == root, "H must close after |B*| steps (Proposition 2.1)");
  return result;
}

// ---------------------------------------------------------------------------
// Arena solve: the same FFC algorithm expressed against a reusable
// SolveScratch and the context's precomputed label-merge tables. Bit
// identity with the reference solve() above rests on the order-independence
// of every tie-break: BFS parents are the *minimum* predecessor one round
// earlier, the distinguished component maximizes (size, -min_node), and
// Steps 1.2/2 pick minima over whole member slices — so the work can be
// reorganized (sweeps that expand each (n-1)-word block once instead of
// probing d neighbours per node, B* read off the broadcast's reach instead
// of an SCC pass, lookups instead of Step-1.2 parent and Step-3 endpoint
// searches, flat bitsets and arrays instead of unordered_maps, CSR slices
// instead of freshly built necklace lists) without changing a single output
// byte. The fuzz suite (test_solve_arena) enforces the claim across the
// scenario corpus and a set of wide-base and n <= 2 shapes.

FfcResult FfcSolver::solve(std::span<const Word> faulty_nodes,
                           SolveScratch& s, const FfcOptions& options) const {
  require(ctx_ != nullptr,
          "the arena solve requires a context-backed FfcSolver");
  const WordSpace& ws = graph_.words();
  const NecklaceTable& nt = *necklaces_;
  const LabelMergeTable& lm = ctx_->label_merge();
  const Word size = ws.size();
  const Digit d = ws.radix();
  const Word suffix_count = size / d;
  const SuccBase succ(ws);

  FfcResult result;

  // Faulty necklaces (sorted distinct reps), mirroring necklace_reps_of.
  s.reps_tmp.clear();
  for (Word f : faulty_nodes) {
    require(f < size, "node out of range");
    s.reps_tmp.push_back(nt.min_rot[f]);
  }
  std::sort(s.reps_tmp.begin(), s.reps_tmp.end());
  s.reps_tmp.erase(std::unique(s.reps_tmp.begin(), s.reps_tmp.end()),
                   s.reps_tmp.end());
  result.faulty_necklace_reps.assign(s.reps_tmp.begin(), s.reps_tmp.end());

  // Active mask: faulty necklaces removed whole, via their CSR slices.
  s.active.assign(size, true);
  std::uint64_t removed = 0;
  for (Word rep : result.faulty_necklace_reps) {
    const std::uint32_t i = lm.necklace_index[rep];
    for (std::uint64_t j = lm.member_begin[i]; j < lm.member_begin[i + 1]; ++j) {
      s.active.reset(lm.members[j]);
    }
    removed += lm.period(i);
  }
  result.faulty_node_count = removed;

  // --- Choose the distinguished node R and its component B*. ---
  // In B(d,n) the d words a.w share one out-neighbourhood {w.b} and the d
  // words w.b share one in-neighbourhood {a.w}: the label-w structure of
  // Section 2.2. The broadcast and the component flood below expand each
  // (n-1)-word block once, so a solve costs O(1) per node whatever d is.

  // Step 1.1's broadcast over the active nodes. A round walks its frontier;
  // the first node with suffix w to appear expands block w, giving every
  // active, unreached w.b the next round, and block_first[w] keeps the
  // smallest node with suffix w in that round. Rounds equal a node-by-node
  // BFS's (a loop carries nothing: a^n is reached before its own block
  // expands). block_first[w] is the smallest predecessor of each w.b one
  // round earlier, the sender the reference BFS keeps, so Step 1.2 reads a
  // leader's parent off it.
  std::uint32_t eccentricity = 0;
  std::uint64_t reached = 0;
  const auto broadcast = [&](Word r) {
    s.dist.assign(size, kUnreached);
    s.block_first.assign(suffix_count, kNoWord);
    s.dist[r] = 0;
    s.frontier.assign(1, r);
    reached = 1;
    eccentricity = 0;
    for (std::uint32_t round = 0; !s.frontier.empty(); ++round) {
      s.frontier_next.clear();
      for (Word u : s.frontier) {
        const Word w = succ.suffix(u);
        Word& first = s.block_first[w];
        if (first != kNoWord) {
          if (u < first && s.dist[first] == round) first = u;
          continue;
        }
        first = u;
        const Word base = w * d;
        for (Digit b = 0; b < d; ++b) {
          if (s.active.test(base + b) && s.dist[base + b] == kUnreached) {
            s.dist[base + b] = round + 1;
            s.frontier_next.push_back(base + b);
          }
        }
      }
      if (!s.frontier_next.empty()) eccentricity = round + 1;
      reached += s.frontier_next.size();
      s.frontier.swap(s.frontier_next);
    }
  };

  // B* is R's strongly connected component, and R is an explicit root's
  // representative or else the smallest node of the largest component.
  // Faults remove whole necklaces and N*'s edges come in antiparallel pairs
  // (Section 2.2: a.w -> w.b, and b.w -> w.a joins the same two necklaces
  // back), so every node R reaches reaches R back: B* is the broadcast's
  // reach from R, the nodes with dist != kUnreached. Without a root, the
  // broadcast starts at the smallest active node; when it reaches every
  // active node, as it nearly always does, that node is R.
  Word root = kNoWord;
  if (options.root.has_value()) {
    require(*options.root < size, "root out of range");
    require(s.active.test(*options.root),
            "requested root lies on a faulty necklace");
    root = nt.min_rot[*options.root];
  } else {
    for (Word v = 0; v < size; ++v) {
      if (s.active.test(v)) {
        root = v;
        break;
      }
    }
    require(root != kNoWord, "all nodes are faulty");
  }
  broadcast(root);
  if (!options.root.has_value() && reached < size - removed) {
    // The active graph is disconnected. Flood each other component from its
    // smallest node, in ascending order, claiming nodes in s.visited and
    // expanded blocks in s.prefix_done. Components never share a block:
    // every active u reaches its rotation in block suffix(u), and two
    // components reaching one block would be one. The largest component
    // wins; a tie keeps the smaller start, as the reference does.
    Word best = root;
    std::uint64_t best_size = reached;
    s.visited.assign(size, false);
    s.prefix_done.assign(suffix_count, false);
    for (Word start = root + 1; start < size; ++start) {
      if (!s.active.test(start) || s.dist[start] != kUnreached ||
          s.visited.test(start)) {
        continue;
      }
      s.visited.set(start);
      s.frontier.assign(1, start);
      std::uint64_t flooded = 1;
      while (!s.frontier.empty()) {
        const Word w = succ.suffix(s.frontier.back());
        s.frontier.pop_back();
        if (s.prefix_done.test(w)) continue;
        s.prefix_done.set(w);
        for (Word v = w * d; v < (w + 1) * d; ++v) {
          if (s.active.test(v) && !s.visited.test(v)) {
            s.visited.set(v);
            s.frontier.push_back(v);
            ++flooded;
          }
        }
      }
      if (flooded > best_size) {
        best = start;
        best_size = flooded;
      }
    }
    if (best != root) broadcast(root = best);
  }
  result.root = root;
  result.bstar_size = reached;
  result.root_eccentricity = eccentricity;
  const Word root_rep = nt.min_rot[root];
  ensure(root_rep == root, "root is canonical by construction");

  // --- Step 1.2: spanning tree T of N*: per component necklace, the leader
  // is the member minimizing (broadcast round, id) over its CSR slice, and
  // its broadcast parent is block_first[prefix(leader)]. Each leader is
  // kept for Step 3. ---
  result.necklace_count = 0;
  s.edge_tmp.clear();
  s.leader_of.resize(nt.reps.size());
  for (Word rep : nt.reps) {
    if (s.dist[rep] == kUnreached) continue;
    ++result.necklace_count;
    if (rep == root_rep) continue;
    const std::uint32_t i = lm.necklace_index[rep];
    Word leader = kNoWord;
    std::uint32_t best_dist = kUnreached;
    for (std::uint64_t j = lm.member_begin[i]; j < lm.member_begin[i + 1]; ++j) {
      const Word v = lm.members[j];
      if (s.dist[v] < best_dist || (s.dist[v] == best_dist && v < leader)) {
        best_dist = s.dist[v];
        leader = v;
      }
    }
    ensure(leader != kNoWord, "every component necklace has a leader");
    const Word label = succ.pred_base(leader);
    const Word parent = s.block_first[label];
    ensure(parent != kNoWord && s.dist[parent] + 1 == best_dist,
           "non-root leader must have a broadcast parent");
    const Word parent_rep = nt.min_rot[parent];
    ensure(parent_rep != rep, "leader's parent lies in a different necklace");
    s.leader_of[i] = leader;
    s.edge_tmp.push_back({parent_rep, rep, label});
  }
  sort_necklace_edges(lm, nt.reps.size(), s, result.tree_edges);

  // --- Step 2: modify each label class T_w into a cycle over its members
  // in ascending order. T_w is a height-one star (Step 1.2): all its edges
  // leave one parent necklace, so with T sorted by (from, to) each class
  // lies inside one parent's run, and only that run's (label, child) pairs
  // are sorted. A label seen under a second parent breaks the property. ---
  s.labels_seen.assign(suffix_count, false);
  s.edge_tmp.clear();
  const std::vector<LabeledEdge>& tree = result.tree_edges;
  for (std::size_t i = 0; i < tree.size();) {
    const Word parent = tree[i].from;
    s.label_pairs.clear();
    for (; i < tree.size() && tree[i].from == parent; ++i) {
      s.label_pairs.emplace_back(tree[i].label, tree[i].to);
    }
    std::sort(s.label_pairs.begin(), s.label_pairs.end());
    for (std::size_t j = 0; j < s.label_pairs.size();) {
      const Word label = s.label_pairs[j].first;
      ensure(!s.labels_seen.test(label),
             "T_w must have a common parent (height-one property, Step 1.2)");
      s.labels_seen.set(label);
      s.members_tmp.clear();
      for (; j < s.label_pairs.size() && s.label_pairs[j].first == label; ++j) {
        s.members_tmp.push_back(s.label_pairs[j].second);  // ascending by sort
      }
      s.members_tmp.insert(
          std::lower_bound(s.members_tmp.begin(), s.members_tmp.end(), parent),
          parent);
      for (std::size_t k = 0; k < s.members_tmp.size(); ++k) {
        s.edge_tmp.push_back(
            {s.members_tmp[k], s.members_tmp[(k + 1) % s.members_tmp.size()],
             label});
      }
    }
  }
  sort_necklace_edges(lm, nt.reps.size(), s, result.modified_edges);

  // --- Step 3: successor rule. A D-edge [x] -w-> [y] of class T_w reroutes
  // the node of [x] with suffix w to the node of [y] with prefix w. Both
  // come from lookups, not probes. A necklace of T_w enters at its node with
  // prefix w and exits at that node's right rotation: the class's parent
  // necklace enters at rot_next[p], where p = block_first[w] is the
  // broadcast parent of the class's leaders and has suffix w; a child
  // enters at its leader. The context build checked that no necklace
  // exposes a label twice (Section 2.2), so a node of the named necklace
  // carrying the label is the endpoint; the ensure holds both to that. ---
  s.rerouted.assign(size, false);
  s.reroute_to.resize(size);
  for (const LabeledEdge& e : result.modified_edges) {
    const Word p = s.block_first[e.label];
    const Word parent_rep = nt.min_rot[p];
    const auto entry_of = [&](Word rep) {
      return rep == parent_rep ? lm.rot_next[p]
                               : s.leader_of[lm.necklace_index[rep]];
    };
    const Word label_base = e.label * d;  // w.b lies in [w.0, w.0 + d)
    const Word from_entry = entry_of(e.from);
    const Word entry_node = entry_of(e.to);
    ensure(from_entry - label_base < d && entry_node - label_base < d,
           "both endpoints of a D-edge expose the label (Section 2.2)");
    // The right rotation of w.b is b.w.
    const Word exit_node = (from_entry - label_base) * suffix_count + e.label;
    ensure(nt.min_rot[exit_node] == e.from && nt.min_rot[entry_node] == e.to,
           "each endpoint of a D-edge lies in its necklace");
    ensure(!s.rerouted.test(exit_node),
           "each node is rerouted by at most one D-edge");
    s.rerouted.set(exit_node);
    s.reroute_to[exit_node] = entry_node;
  }

  // --- Walk H from the root (table-driven rotation successors). ---
  result.cycle.nodes.reserve(reached);
  s.visited.assign(size, false);
  Word cur = root;
  for (std::uint64_t step = 0; step < reached; ++step) {
    ensure(s.dist[cur] != kUnreached && !s.visited.test(cur),
           "H must stay in B* and not revisit");
    s.visited.set(cur);
    result.cycle.nodes.push_back(cur);
    cur = s.rerouted.test(cur) ? s.reroute_to[cur] : lm.rot_next[cur];
  }
  ensure(cur == root, "H must close after |B*| steps (Proposition 2.1)");
  return result;
}

FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    const FfcOptions& options) {
  return solve_ffc(ctx, faulty_nodes, solve_scratch_tls(), options);
}

FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    SolveScratch& scratch, const FfcOptions& options) {
  return FfcSolver(ctx).solve(faulty_nodes, scratch, options);
}

std::pair<std::uint64_t, std::uint64_t> ffc_cycle_length_bounds(
    Digit d, unsigned n, std::uint64_t fault_count) {
  // WordSpace validates d >= 2, n >= 1 and d^(n+1) representable, so d^n
  // below is exact (no silent wraparound for out-of-range instances).
  const std::uint64_t size = WordSpace(d, n).size();
  const std::uint64_t f = fault_count;
  const std::uint64_t upper = f >= size ? 0 : size - f;
  std::uint64_t lower = 0;
  if (f <= d - 2) {
    const std::uint64_t removed = static_cast<std::uint64_t>(n) * f;
    lower = removed >= size ? 0 : size - removed;  // Proposition 2.2
  } else if (d == 2 && f == 1) {
    const std::uint64_t removed = static_cast<std::uint64_t>(n) + 1;
    lower = removed >= size ? 0 : size - removed;  // Proposition 2.3
  }
  return {lower, upper};
}

}  // namespace dbr::core
