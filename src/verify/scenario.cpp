#include "verify/scenario.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/word.hpp"
#include "verify/oracle.hpp"

namespace dbr::verify {

using service::EmbedRequest;
using service::FaultKind;
using service::Strategy;

namespace {

struct GraphShape {
  Digit d;
  unsigned n;
};

// Small enough that a sweep of hundreds of scenarios per strategy stays
// test-sized, large enough that necklace structure and fault budgets are
// nontrivial (64 <= d^n <= 1024).
constexpr GraphShape kNodeGraphs[] = {{2, 6}, {2, 8}, {2, 10}, {3, 4}, {3, 5},
                                      {4, 4}, {5, 3}, {5, 4},  {6, 3}, {7, 3}};
constexpr GraphShape kEdgeGraphs[] = {{2, 6}, {2, 8}, {3, 4}, {3, 5},
                                      {4, 4}, {4, 5}, {5, 3}, {5, 4},
                                      {6, 3}, {7, 3}, {8, 3}, {9, 3}};
// gcd(d, n) = 1 throughout (Proposition 3.5's lift precondition).
constexpr GraphShape kButterflyGraphs[] = {{2, 5}, {2, 7}, {3, 4}, {3, 5},
                                           {4, 5}, {5, 4}, {5, 6}, {7, 3},
                                           {8, 3}, {9, 4}};

constexpr Regime kNodeRegimes[] = {
    Regime::kFaultFree,       Regime::kWithinGuarantee,
    Regime::kBoundary,        Regime::kBeyondGuarantee,
    Regime::kClusteredNecklace, Regime::kShuffledDuplicates};
constexpr Regime kEdgeRegimes[] = {
    Regime::kFaultFree, Regime::kWithinGuarantee,    Regime::kBoundary,
    Regime::kBeyondGuarantee, Regime::kLoopEdges, Regime::kShuffledDuplicates};
constexpr Regime kMixedRegimes[] = {
    Regime::kFaultFree,      Regime::kMixedNodeHeavy,
    Regime::kMixedEdgeHeavy, Regime::kMixedCorrelated,
    Regime::kBeyondGuarantee, Regime::kShuffledDuplicates};

/// The loop edge word a^(n+1) of B(d,n), built digit by digit.
Word loop_edge_word(Digit d, unsigned n, Digit a) {
  Word w = 0;
  for (unsigned i = 0; i <= n; ++i) w = w * d + a;
  return w;
}

/// Node-fault boundary: f = d-2 (Proposition 2.2), except d = 2 where the
/// guarantee regime is the single-fault Proposition 2.3.
std::uint64_t node_fault_boundary(Digit d) {
  return d == 2 ? 1 : static_cast<std::uint64_t>(d) - 2;
}

void shuffle(std::vector<Word>& words, Rng& rng) {
  for (std::size_t i = words.size(); i > 1; --i) {
    std::swap(words[i - 1], words[rng.below(i)]);
  }
}

/// One kind's live set plus the grammar of a single churn step: adds draw
/// fresh words, removals draw live ones, and the live set never exceeds
/// max_live. Every step mutates the live set.
struct ChurnTrack {
  FaultKind kind = FaultKind::kNode;
  std::uint64_t space = 0;
  std::uint64_t max_live = 0;
  std::vector<Word> live;  // sorted

  ChurnEvent step(Rng& rng) {
    const bool add =
        live.empty() || (live.size() < max_live && rng.below(5) < 3);
    ChurnEvent event;
    event.kind = kind;
    event.add = add;
    if (add) {
      Word w;
      std::vector<Word>::iterator it;
      do {
        w = rng.below(space);
        it = std::lower_bound(live.begin(), live.end(), w);
      } while (it != live.end() && *it == w);
      live.insert(it, w);
      event.fault = w;
    } else {
      const std::size_t pick = rng.below(live.size());
      event.fault = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    return event;
  }
};

/// The homogeneous churn event loop over one word space, tagged `kind`.
std::vector<ChurnEvent> churn_events(Rng& rng, FaultKind kind,
                                     std::uint64_t space,
                                     std::uint64_t max_live,
                                     std::size_t event_count) {
  // A live set can never exceed the word space; without the clamp a
  // caller-chosen max_live > space would make the fresh-word draw spin
  // forever once every word is live.
  ChurnTrack track{kind, space, std::min(max_live, space), {}};
  std::vector<ChurnEvent> events;
  events.reserve(event_count);
  for (std::size_t i = 0; i < event_count; ++i) events.push_back(track.step(rng));
  return events;
}

/// The mixed churn event loop: each event flips a seeded coin between the
/// router track (node words) and the link track (edge words), then churns
/// that track. Both kinds hover around their own budgets.
std::vector<ChurnEvent> churn_events_mixed(
    Rng& rng, std::uint64_t node_space, std::uint64_t edge_space,
    std::uint64_t max_live_nodes, std::uint64_t max_live_edges,
    std::size_t event_count) {
  ChurnTrack nodes{FaultKind::kNode, node_space,
                   std::min(max_live_nodes, node_space), {}};
  ChurnTrack edges{FaultKind::kEdge, edge_space,
                   std::min(max_live_edges, edge_space), {}};
  std::vector<ChurnEvent> events;
  events.reserve(event_count);
  for (std::size_t i = 0; i < event_count; ++i) {
    ChurnTrack* track = rng.below(2) == 0 ? &nodes : &edges;
    // Keep zero-cap tracks out of the stream (their only legal state is
    // empty); the caller guarantees at least one track has a nonzero cap.
    if (track->max_live == 0) track = track == &nodes ? &edges : &nodes;
    events.push_back(track->step(rng));
  }
  return events;
}

/// Duplicates a few entries and permutes the presentation; the engine's
/// canonicalization must make this indistinguishable from the sorted set.
void duplicate_and_shuffle(std::vector<Word>& faults, Rng& rng) {
  if (faults.empty()) return;
  const std::uint64_t copies = 1 + rng.below(faults.size());
  for (std::uint64_t c = 0; c < copies; ++c) {
    faults.push_back(faults[rng.below(faults.size())]);
  }
  shuffle(faults, rng);
}

/// Mixed node+edge scenarios: both fault lists populated per regime. The
/// combined pull-back budget (node faults + charged edge faults within the
/// Proposition 2.2/2.3 envelope) plays the role the node boundary plays for
/// kFfc; node-free edge-heavy draws use the Proposition 3.4 edge budget.
void fill_mixed_scenario(Rng& rng, Scenario& sc) {
  EmbedRequest& req = sc.request;
  req.fault_kind = FaultKind::kMixed;
  const GraphShape shape = kEdgeGraphs[rng.below(std::size(kEdgeGraphs))];
  req.base = shape.d;
  req.n = shape.n;
  sc.regime = kMixedRegimes[rng.below(std::size(kMixedRegimes))];

  const WordSpace ws(shape.d, shape.n);
  const std::uint64_t boundary = node_fault_boundary(shape.d);

  std::uint64_t node_count = 0;
  std::uint64_t edge_count = 0;
  switch (sc.regime) {
    case Regime::kFaultFree:
      break;
    case Regime::kMixedNodeHeavy: {
      // Mostly dead routers, a minority of cut links, total within the
      // pull-back guarantee.
      const std::uint64_t total =
          1 + rng.below(std::max<std::uint64_t>(boundary, 1));
      edge_count = total > 1 ? rng.below(total / 2 + 1) : 0;
      node_count = total - edge_count;
      break;
    }
    case Regime::kMixedEdgeHeavy: {
      // Mostly cut links; at most one dead router. Node-free draws get the
      // full Proposition 3.4 edge budget (the Hamiltonian route).
      node_count = rng.below(2);
      const std::uint64_t budget =
          node_count == 0
              ? edge_fault_guarantee(service::Strategy::kEdgeAuto, shape.d)
              : (boundary > node_count ? boundary - node_count : 0);
      edge_count = 1 + rng.below(std::max<std::uint64_t>(budget, 1));
      break;
    }
    case Regime::kMixedCorrelated: {
      // Correlated router loss: a dead word implies its 2d incident links,
      // all listed explicitly — the cross-kind canonicalization must
      // collapse every one of them onto the node fault.
      const std::uint64_t dead = 1 + rng.below(2);
      for (std::uint64_t u : rng.sample_distinct(ws.size(), dead)) {
        req.faults.push_back(u);
        for (Digit a = 0; a < shape.d; ++a) {
          req.edge_faults.push_back(ws.edge_word(u, a));  // out-links u -> .
          req.edge_faults.push_back(                      // in-links  . -> u
              ws.edge_word(ws.shift_prepend(u, a), ws.tail(u)));
        }
      }
      req.edge_faults = distinct_faults(req.edge_faults);
      shuffle(req.faults, rng);
      shuffle(req.edge_faults, rng);
      return;
    }
    case Regime::kBeyondGuarantee:
      node_count = boundary + 1 + rng.below(2);
      edge_count = 1 + rng.below(3);
      break;
    case Regime::kShuffledDuplicates: {
      const std::uint64_t total = 1 + rng.below(std::max<std::uint64_t>(boundary, 1));
      edge_count = rng.below(total + 1);
      node_count = total - edge_count;
      break;
    }
    default:
      break;  // unreachable: not in the mixed regime table
  }
  for (std::uint64_t v : rng.sample_distinct(ws.size(), node_count)) {
    req.faults.push_back(v);
  }
  for (std::uint64_t v : rng.sample_distinct(ws.edge_word_count(), edge_count)) {
    req.edge_faults.push_back(v);
  }
  if (sc.regime == Regime::kShuffledDuplicates) {
    duplicate_and_shuffle(req.faults, rng);
    duplicate_and_shuffle(req.edge_faults, rng);
  }
}

}  // namespace

const char* to_string(Regime r) {
  switch (r) {
    case Regime::kFaultFree: return "fault_free";
    case Regime::kWithinGuarantee: return "within_guarantee";
    case Regime::kBoundary: return "boundary";
    case Regime::kBeyondGuarantee: return "beyond_guarantee";
    case Regime::kClusteredNecklace: return "clustered_necklace";
    case Regime::kLoopEdges: return "loop_edges";
    case Regime::kShuffledDuplicates: return "shuffled_duplicates";
    case Regime::kMixedNodeHeavy: return "mixed_node_heavy";
    case Regime::kMixedEdgeHeavy: return "mixed_edge_heavy";
    case Regime::kMixedCorrelated: return "mixed_correlated";
  }
  return "unknown";
}

std::string Scenario::describe() const {
  std::string out = "(seed=" + std::to_string(seed) +
                    ", base=" + std::to_string(request.base) +
                    ", n=" + std::to_string(request.n) + ", strategy=" +
                    service::to_string(request.strategy) + ")";
  out += " regime=";
  out += verify::to_string(regime);
  out += " kind=";
  out += service::to_string(request.fault_kind);
  out += " faults=[";
  for (std::size_t i = 0; i < request.faults.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(request.faults[i]);
  }
  out += "]";
  if (!request.edge_faults.empty()) {
    out += " edge_faults=[";
    for (std::size_t i = 0; i < request.edge_faults.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(request.edge_faults[i]);
    }
    out += "]";
  }
  return out;
}

Scenario make_scenario(std::uint64_t seed, Strategy strategy) {
  // split() decorrelates strategies sharing a seed without losing the
  // (seed, strategy) -> scenario purity.
  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(strategy));

  Scenario sc;
  sc.seed = seed;
  EmbedRequest& req = sc.request;
  req.strategy = strategy;

  if (strategy == Strategy::kMixed) {
    fill_mixed_scenario(rng, sc);
    return sc;
  }

  bool node_faults = false;
  if (strategy == Strategy::kFfc) {
    node_faults = true;
  } else if (strategy == Strategy::kAuto) {
    node_faults = rng.below(2) == 0;
  }
  req.fault_kind = node_faults ? FaultKind::kNode : FaultKind::kEdge;

  GraphShape shape{};
  if (strategy == Strategy::kButterfly) {
    shape = kButterflyGraphs[rng.below(std::size(kButterflyGraphs))];
  } else if (node_faults) {
    shape = kNodeGraphs[rng.below(std::size(kNodeGraphs))];
  } else {
    shape = kEdgeGraphs[rng.below(std::size(kEdgeGraphs))];
  }
  req.base = shape.d;
  req.n = shape.n;

  sc.regime = node_faults ? kNodeRegimes[rng.below(std::size(kNodeRegimes))]
                          : kEdgeRegimes[rng.below(std::size(kEdgeRegimes))];

  // WordSpace validates the shape (overflow-checked powers), so a bad
  // future entry in the graph tables fails loudly instead of wrapping.
  const WordSpace ws(shape.d, shape.n);
  const std::uint64_t space = node_faults ? ws.size() : ws.edge_word_count();
  const std::uint64_t boundary =
      node_faults ? node_fault_boundary(shape.d)
                  : edge_fault_guarantee(strategy == Strategy::kAuto
                                             ? Strategy::kEdgeAuto
                                             : strategy,
                                         shape.d);

  std::uint64_t count = 0;
  switch (sc.regime) {
    case Regime::kFaultFree:
      count = 0;
      break;
    case Regime::kWithinGuarantee:
    case Regime::kShuffledDuplicates:
      count = boundary == 0 ? 0 : 1 + rng.below(boundary);
      break;
    case Regime::kBoundary:
      count = boundary;
      break;
    case Regime::kBeyondGuarantee:
      count = boundary + 1 + rng.below(3);
      break;
    case Regime::kClusteredNecklace: {
      // All rotations of one random word: the whole necklace goes faulty,
      // the FFC removal's worst case per fault "cluster".
      const Word anchor = rng.below(space);
      for (unsigned k = 0; k < shape.n; ++k) {
        req.faults.push_back(ws.rotate_left(anchor, k));
      }
      req.faults = distinct_faults(req.faults);
      shuffle(req.faults, rng);
      return sc;
    }
    case Regime::kMixedNodeHeavy:
    case Regime::kMixedEdgeHeavy:
    case Regime::kMixedCorrelated:
      break;  // unreachable: only fill_mixed_scenario draws these regimes
    case Regime::kLoopEdges: {
      // One or more genuine loop words (harmless by definition) on top of a
      // within-guarantee random set: the guarantee accounting must not
      // charge for them.
      const std::uint64_t loops = 1 + rng.below(shape.d);
      for (std::uint64_t i = 0; i < loops; ++i) {
        req.faults.push_back(loop_edge_word(
            shape.d, shape.n, static_cast<Digit>(rng.below(shape.d))));
      }
      const std::uint64_t extra = boundary == 0 ? 0 : rng.below(boundary + 1);
      for (std::uint64_t v : rng.sample_distinct(space, extra)) {
        req.faults.push_back(v);
      }
      shuffle(req.faults, rng);
      return sc;
    }
  }

  for (std::uint64_t v : rng.sample_distinct(space, count)) {
    req.faults.push_back(v);
  }
  if (sc.regime == Regime::kShuffledDuplicates) {
    duplicate_and_shuffle(req.faults, rng);
  }
  return sc;
}

service::FaultSet ChurnScript::final_fault_set() const {
  service::FaultSet set;
  for (const ChurnEvent& e : events) {
    std::vector<Word>& live =
        e.kind == service::FaultKind::kEdge ? set.edges : set.nodes;
    const auto it = std::lower_bound(live.begin(), live.end(), e.fault);
    if (e.add) {
      if (it == live.end() || *it != e.fault) live.insert(it, e.fault);
    } else if (it != live.end() && *it == e.fault) {
      live.erase(it);
    }
  }
  return set;
}

std::vector<Word> ChurnScript::final_faults() const {
  service::FaultSet set = final_fault_set();
  std::vector<Word> out = std::move(set.nodes);
  out.insert(out.end(), set.edges.begin(), set.edges.end());
  return out;
}

std::string ChurnScript::describe() const {
  std::string out = "(seed=" + std::to_string(seed) +
                    ", base=" + std::to_string(base_request.base) +
                    ", n=" + std::to_string(base_request.n) + ", strategy=" +
                    service::to_string(base_request.strategy) + ")";
  out += " kind=";
  out += service::to_string(base_request.fault_kind);
  const bool mixed = base_request.fault_kind == service::FaultKind::kMixed;
  out += " events=[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ", ";
    out += events[i].add ? '+' : '-';
    // Mixed streams tag each event with its word space.
    if (mixed) {
      out += events[i].kind == service::FaultKind::kEdge ? "e" : "n";
    }
    out += std::to_string(events[i].fault);
  }
  out += "]";
  return out;
}

ChurnScript make_churn_script(std::uint64_t seed, Strategy strategy,
                              std::size_t event_count) {
  // A split stream disjoint from make_scenario's (which uses split(strategy),
  // values 0..6), so churn scripts and one-shot scenarios sharing a seed are
  // decorrelated.
  Rng rng = Rng(seed).split(100 + static_cast<std::uint64_t>(strategy));

  ChurnScript script;
  script.seed = seed;
  EmbedRequest& req = script.base_request;
  req.strategy = strategy;

  if (strategy == Strategy::kMixed) {
    req.fault_kind = FaultKind::kMixed;
    const GraphShape shape = kEdgeGraphs[rng.below(std::size(kEdgeGraphs))];
    req.base = shape.d;
    req.n = shape.n;
    const WordSpace ws(shape.d, shape.n);
    // Each track hovers around its own budget: routers around the pull-back
    // boundary, links around the Proposition 3.4 edge budget, both with a
    // little beyond-guarantee headroom.
    const std::uint64_t node_boundary = node_fault_boundary(shape.d);
    const std::uint64_t edge_boundary =
        edge_fault_guarantee(Strategy::kEdgeAuto, shape.d);
    script.events = churn_events_mixed(
        rng, ws.size(), ws.edge_word_count(),
        std::max<std::uint64_t>(node_boundary, 1) + 1,
        std::max<std::uint64_t>(edge_boundary, 1) + 1, event_count);
    return script;
  }

  bool node_faults = false;
  if (strategy == Strategy::kFfc) {
    node_faults = true;
  } else if (strategy == Strategy::kAuto) {
    node_faults = rng.below(2) == 0;
  }
  req.fault_kind = node_faults ? FaultKind::kNode : FaultKind::kEdge;

  GraphShape shape{};
  if (strategy == Strategy::kButterfly) {
    shape = kButterflyGraphs[rng.below(std::size(kButterflyGraphs))];
  } else if (node_faults) {
    shape = kNodeGraphs[rng.below(std::size(kNodeGraphs))];
  } else {
    shape = kEdgeGraphs[rng.below(std::size(kEdgeGraphs))];
  }
  req.base = shape.d;
  req.n = shape.n;

  const WordSpace ws(shape.d, shape.n);
  const std::uint64_t space = node_faults ? ws.size() : ws.edge_word_count();
  const std::uint64_t boundary =
      node_faults ? node_fault_boundary(shape.d)
                  : edge_fault_guarantee(strategy == Strategy::kAuto
                                             ? Strategy::kEdgeAuto
                                             : strategy,
                                         shape.d);
  // Hover around the guarantee: the live set may exceed the boundary by a
  // little (so the stream visits kNoEmbedding-legal states) but churns back
  // under it.
  const std::uint64_t max_live = std::max<std::uint64_t>(boundary, 1) + 2;
  script.events =
      churn_events(rng, req.fault_kind, space, max_live, event_count);
  return script;
}

ChurnScript make_churn_script(std::uint64_t seed,
                              const EmbedRequest& base_request,
                              std::size_t event_count,
                              std::uint64_t max_live) {
  // A third split stream, disjoint from make_scenario's (split(strategy))
  // and the seed-drawn churn overload's (split(100 + strategy)).
  Rng rng = Rng(seed).split(
      200 + static_cast<std::uint64_t>(base_request.strategy));
  ChurnScript script;
  script.seed = seed;
  script.base_request = base_request;
  script.base_request.faults.clear();
  script.base_request.edge_faults.clear();
  const WordSpace ws(base_request.base, base_request.n);
  if (base_request.fault_kind == FaultKind::kMixed) {
    script.events = churn_events_mixed(rng, ws.size(), ws.edge_word_count(),
                                       max_live, max_live, event_count);
    return script;
  }
  const std::uint64_t space = base_request.fault_kind == FaultKind::kNode
                                  ? ws.size()
                                  : ws.edge_word_count();
  script.events = churn_events(rng, base_request.fault_kind, space, max_live,
                               event_count);
  return script;
}

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kRingAllReduce: return "ring_allreduce";
    case TrafficPattern::kTokenStream: return "token_stream";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kIncast: return "incast";
    case TrafficPattern::kUniform: return "uniform";
  }
  return "unknown";
}

std::string TrafficScenario::describe() const {
  std::string out = "(seed=" + std::to_string(seed) +
                    ", base=" + std::to_string(base_request.base) +
                    ", n=" + std::to_string(base_request.n) + ", strategy=" +
                    service::to_string(base_request.strategy) + ")";
  out += " pattern=";
  out += verify::to_string(pattern);
  out += " horizon=" + std::to_string(horizon);
  out += " queue_capacity=" + std::to_string(queue_capacity);
  const bool mixed = base_request.fault_kind == service::FaultKind::kMixed;
  out += " events=[";
  for (std::size_t i = 0; i < churn.size(); ++i) {
    if (i > 0) out += ", ";
    out += '@';
    out += std::to_string(churn[i].round);
    out += churn[i].event.add ? '+' : '-';
    if (mixed) {
      out += churn[i].event.kind == service::FaultKind::kEdge ? "e" : "n";
    }
    out += std::to_string(churn[i].event.fault);
  }
  out += "]";
  return out;
}

TrafficScenario make_traffic_scenario(std::uint64_t seed) {
  // A fourth split stream, disjoint from make_scenario (split(strategy)),
  // the seed-drawn churn overload (split(100+strategy)) and the explicit-
  // instance churn overload (split(200+strategy)).
  Rng rng = Rng(seed).split(300);

  TrafficScenario sc;
  sc.seed = seed;
  sc.pattern = static_cast<TrafficPattern>(rng.below(5));

  // Traffic rides node-word rings, so instances draw the fail-stop (kFfc)
  // or mixed (kills plus link cuts) session shapes only.
  const bool mixed = rng.below(2) == 0;
  EmbedRequest& req = sc.base_request;
  req.strategy = mixed ? Strategy::kMixed : Strategy::kFfc;
  req.fault_kind = mixed ? FaultKind::kMixed : FaultKind::kNode;
  const GraphShape shape = mixed
                               ? kEdgeGraphs[rng.below(std::size(kEdgeGraphs))]
                               : kNodeGraphs[rng.below(std::size(kNodeGraphs))];
  req.base = shape.d;
  req.n = shape.n;

  sc.queue_capacity = 4 + static_cast<std::uint32_t>(rng.below(13));

  const WordSpace ws(shape.d, shape.n);
  const std::uint64_t node_boundary = node_fault_boundary(shape.d);
  // A quarter of the seeds let the live set exceed the guarantee by one, so
  // the sweep also visits the kNoEmbedding regime (every packet unroutable
  // until churn drops back under the boundary).
  const std::uint64_t headroom = rng.below(4) == 0 ? 1 : 0;

  std::vector<ChurnEvent> events;
  if (mixed) {
    const std::uint64_t edge_boundary =
        edge_fault_guarantee(Strategy::kEdgeAuto, shape.d);
    events = churn_events_mixed(
        rng, ws.size(), ws.edge_word_count(),
        std::max<std::uint64_t>(node_boundary, 1) + headroom,
        std::max<std::uint64_t>(edge_boundary, 1) + headroom,
        2 + rng.below(3));
  } else {
    events = churn_events(rng, FaultKind::kNode, ws.size(),
                          std::max<std::uint64_t>(node_boundary, 1) + headroom,
                          2 + rng.below(3));
  }

  // Section 2.4 prices a cold distributed rebuild at about 4n+2 rounds
  // (probe n, dossier <= n, reroute <= n, announce 1, broadcast n+1); fault
  // epochs are spaced past that so even the cold path finishes re-routing
  // before the next fault lands, and the repair-vs-cold comparison measures
  // rebuild cost, not overlapping outages.
  const std::uint64_t cold_rounds = 4 * static_cast<std::uint64_t>(shape.n) + 2;
  std::uint64_t round = 4 + rng.below(8);  // fault-free warmup
  for (std::size_t i = 0; i < events.size(); ++i) {
    sc.churn.push_back({round, events[i]});
    // A quarter of consecutive event pairs share a round (one fault epoch
    // with two simultaneous faults); the rest open a fresh epoch.
    if (i + 1 < events.size() && rng.below(4) != 0) {
      round += cold_rounds + 4 + rng.below(8);
    }
  }

  // Enough rounds past the last epoch for the final rebuild to finish and a
  // full ring circulation to drain (token streams traverse d^n hops).
  sc.horizon = round + cold_rounds + ws.size() + 24 + rng.below(16);
  return sc;
}

std::vector<TrafficScenario> make_traffic_sweep(std::uint64_t base_seed,
                                                std::size_t count) {
  std::vector<TrafficScenario> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(make_traffic_scenario(base_seed + i));
  }
  return out;
}

std::vector<Scenario> make_sweep(std::uint64_t base_seed, Strategy strategy,
                                 std::size_t count) {
  std::vector<Scenario> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(make_scenario(base_seed + i, strategy));
  }
  return out;
}

}  // namespace dbr::verify
