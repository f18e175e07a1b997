#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/mixed_fault.hpp"
#include "service/engine.hpp"
#include "service/session.hpp"
#include "sim/session_driver.hpp"
#include "util/require.hpp"
#include "verify/oracle.hpp"
#include "verify/scenario.hpp"

// The mixed node+edge fault pipeline: the core solver's two routes, the
// heterogeneous FaultSet canonicalization (mixed-kind ordering, duplicate
// node+incident-edge collapse, cache-key stability), the engine dispatch,
// the oracle's independently derived combined budget, the three mixed
// scenario regimes, session-vs-stateless equivalence under mixed churn,
// and the sim driver's kill + link-cut bridge.

namespace dbr {
namespace {

using service::CacheKey;
using service::EmbedEngine;
using service::EmbedRequest;
using service::EmbedResponse;
using service::EmbedSession;
using service::EmbedStatus;
using service::EngineOptions;
using service::FaultKind;
using service::FaultSet;
using service::FaultSpec;
using service::Strategy;

EmbedRequest mixed_request(Digit base, unsigned n, std::vector<Word> nodes,
                           std::vector<Word> edges) {
  EmbedRequest req;
  req.base = base;
  req.n = n;
  req.fault_kind = FaultKind::kMixed;
  req.faults = std::move(nodes);
  req.edge_faults = std::move(edges);
  req.strategy = Strategy::kMixed;
  return req;
}

/// Edge words traversed by a node ring, wrap included.
std::set<Word> ring_edge_words(const WordSpace& ws, const NodeCycle& ring) {
  std::set<Word> out;
  for (std::size_t i = 0; i < ring.nodes.size(); ++i) {
    const Word u = ring.nodes[i];
    const Word v = ring.nodes[(i + 1) % ring.nodes.size()];
    out.insert(ws.edge_word(u, ws.tail(v)));
  }
  return out;
}

// --- core::solve_mixed -----------------------------------------------------

TEST(MixedFaultCore, NodeOnlySetMatchesFfc) {
  const auto ctx = core::InstanceContext::make(2, 6);
  const std::vector<Word> nodes = {5, 17, 40};
  const core::MixedResult mixed = core::solve_mixed(*ctx, nodes, {});
  ASSERT_TRUE(mixed.cycle.has_value());
  EXPECT_EQ(mixed.route, core::MixedRoute::kFfcPullback);
  EXPECT_EQ(mixed.pullback_node_faults, nodes.size());
  EXPECT_TRUE(mixed.pulled_back.empty());
  const core::FfcResult ffc = core::solve_ffc(*ctx, nodes);
  EXPECT_EQ(mixed.cycle->nodes, ffc.cycle.nodes);
}

TEST(MixedFaultCore, EdgeOnlySetWithinBudgetIsHamiltonian) {
  const auto ctx = core::InstanceContext::make(3, 3);  // phi(3) = 1 edge budget
  const std::vector<Word> edges = {7};
  const core::MixedResult mixed = core::solve_mixed(*ctx, {}, edges);
  ASSERT_TRUE(mixed.cycle.has_value());
  EXPECT_EQ(mixed.route, core::MixedRoute::kHamiltonian);
  EXPECT_EQ(mixed.cycle->length(), ctx->words().size());
  EXPECT_FALSE(ring_edge_words(ctx->words(), *mixed.cycle).contains(7u));
}

TEST(MixedFaultCore, MixedSetAvoidsBothKinds) {
  const auto ctx = core::InstanceContext::make(4, 4);
  const WordSpace& ws = ctx->words();
  const std::vector<Word> nodes = {100};
  const std::vector<Word> edges = {33, 700};
  const core::MixedResult mixed = core::solve_mixed(*ctx, nodes, edges);
  ASSERT_TRUE(mixed.cycle.has_value());
  EXPECT_EQ(mixed.route, core::MixedRoute::kFfcPullback);
  for (Word v : mixed.cycle->nodes) EXPECT_NE(v, 100u);
  const std::set<Word> used = ring_edge_words(ws, *mixed.cycle);
  EXPECT_FALSE(used.contains(33u));
  EXPECT_FALSE(used.contains(700u));
  // Each undominated non-loop edge charges exactly one pulled-back endpoint.
  EXPECT_EQ(mixed.pullback_node_faults, nodes.size() + mixed.pulled_back.size());
  EXPECT_LE(mixed.pulled_back.size(),
            core::countable_mixed_edge_faults(ws, nodes, edges));
}

TEST(MixedFaultCore, EdgeOnlyBeyondBudgetDegradesToPullback) {
  // d = 2: the Proposition 3.4 budget is 0, so any non-loop edge fault that
  // defeats both Section 3.3 constructions must still get a (shorter) ring
  // via the pull-back. Scan edges until one defeats the Hamiltonian route.
  const auto ctx = core::InstanceContext::make(2, 5);
  const WordSpace& ws = ctx->words();
  bool exercised = false;
  for (Word e = 0; e < ws.edge_word_count(); ++e) {
    const std::vector<Word> edges = {e};
    if (core::solve_edge_auto(*ctx, edges).has_value()) continue;
    const core::MixedResult mixed = core::solve_mixed(*ctx, {}, edges);
    ASSERT_TRUE(mixed.cycle.has_value()) << "edge word " << e;
    EXPECT_EQ(mixed.route, core::MixedRoute::kFfcPullback);
    EXPECT_LT(mixed.cycle->length(), ws.size());
    EXPECT_FALSE(ring_edge_words(ws, *mixed.cycle).contains(e));
    exercised = true;
    break;
  }
  EXPECT_TRUE(exercised)
      << "no single edge fault defeated the edge route in B(2,5)";
}

TEST(MixedFaultCore, DominatedEdgesChargeNothing) {
  const auto ctx = core::InstanceContext::make(3, 4);
  const WordSpace& ws = ctx->words();
  const Word u = 10;
  std::vector<Word> incident;
  for (Digit a = 0; a < 3; ++a) {
    incident.push_back(ws.edge_word(u, a));
    incident.push_back(ws.edge_word(ws.shift_prepend(u, a), ws.tail(u)));
  }
  const std::vector<Word> just_u = {u};
  EXPECT_EQ(core::countable_mixed_edge_faults(ws, just_u, incident), 0u);
  const core::MixedResult mixed = core::solve_mixed(*ctx, just_u, incident);
  ASSERT_TRUE(mixed.cycle.has_value());
  EXPECT_TRUE(mixed.pulled_back.empty());  // all edges dominated by u
  const core::MixedResult node_only = core::solve_mixed(*ctx, just_u, {});
  EXPECT_EQ(mixed.cycle->nodes, node_only.cycle->nodes);
}

TEST(MixedFaultCore, LoopEdgeFaultsAreHarmless) {
  const auto ctx = core::InstanceContext::make(2, 4);
  const WordSpace& ws = ctx->words();
  // Loop words 0^5 and 1^5 charge nothing and change nothing.
  const std::vector<Word> loops = {0, ws.edge_word_count() - 1};
  const std::vector<Word> node3 = {3};
  EXPECT_EQ(core::countable_mixed_edge_faults(ws, {}, loops), 0u);
  const core::MixedResult mixed = core::solve_mixed(*ctx, node3, loops);
  ASSERT_TRUE(mixed.cycle.has_value());
  const core::MixedResult bare = core::solve_mixed(*ctx, node3, {});
  EXPECT_EQ(mixed.cycle->nodes, bare.cycle->nodes);
}

TEST(MixedFaultCore, BoundsAgreeWithOracleEnvelope) {
  // The solver's claimed envelope and the oracle's independently derived
  // one must be the same function.
  for (Digit d : {2u, 3u, 4u, 5u, 6u}) {
    for (unsigned n : {2u, 3u, 4u}) {
      for (std::uint64_t nodes = 0; nodes <= 4; ++nodes) {
        for (std::uint64_t edges = 0; edges <= 4; ++edges) {
          const auto core_bounds =
              core::mixed_ring_length_bounds(d, n, nodes, edges);
          const auto oracle_bounds =
              verify::mixed_ring_length_envelope(d, n, nodes, edges);
          EXPECT_EQ(core_bounds, oracle_bounds)
              << "d=" << d << " n=" << n << " nodes=" << nodes
              << " edges=" << edges;
        }
      }
    }
  }
}

TEST(MixedFaultCore, CoveringNodeFaultsAreRejected) {
  const auto ctx = core::InstanceContext::make(2, 2);
  // Necklaces of {00, 01, 11} cover all of B(2,2).
  const std::vector<Word> covering = {0, 1, 3};
  EXPECT_THROW(core::solve_mixed(*ctx, covering, {}), precondition_error);
}

// --- FaultSet canonicalization (the satellite contract) --------------------

TEST(FaultSetCanonicalize, SortsAndDeduplicatesBothKinds) {
  FaultSet set;
  set.nodes = {9, 2, 9, 5, 2};
  set.edges = {40, 11, 40};
  set.canonicalize(3, 3);
  EXPECT_EQ(set.nodes, (std::vector<Word>{2, 5, 9}));
  EXPECT_EQ(set.edges, (std::vector<Word>{11, 40}));
}

TEST(FaultSetCanonicalize, MixedKindOrderingInSpecs) {
  FaultSet set;
  set.nodes = {7, 1};
  set.edges = {25, 12};  // endpoints 12->9 and 6->12: not incident to 1 or 7
  set.canonicalize(2, 4);
  const std::vector<FaultSpec> specs = set.specs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(specs.begin(), specs.end()));
  EXPECT_EQ(specs.front().kind, FaultKind::kNode);
  EXPECT_EQ(specs.back().kind, FaultKind::kEdge);
  EXPECT_EQ(FaultSet::from_specs(specs), set);
}

TEST(FaultSetCanonicalize, CollapsesNodeIncidentEdges) {
  const WordSpace ws(3, 3);
  const Word u = 14;
  FaultSet set;
  set.nodes = {u};
  // All 2d incident edge words of u, plus one unrelated survivor.
  for (Digit a = 0; a < 3; ++a) {
    set.edges.push_back(ws.edge_word(u, a));
    set.edges.push_back(ws.edge_word(ws.shift_prepend(u, a), ws.tail(u)));
  }
  const Word survivor = ws.edge_word(2, 1);  // endpoints 2 -> 7, both healthy
  set.edges.push_back(survivor);
  set.canonicalize(3, 3);
  EXPECT_EQ(set.nodes, std::vector<Word>{u});
  EXPECT_EQ(set.edges, std::vector<Word>{survivor});
}

TEST(FaultSetCanonicalize, KeepsOutOfRangeWordsVerbatim) {
  FaultSet set;
  set.nodes = {0};
  set.edges = {9999999};  // far outside B(2,3)'s 16 edge words
  set.canonicalize(2, 3);
  EXPECT_EQ(set.edges, std::vector<Word>{9999999});
}

TEST(FaultSetCanonicalize, CacheKeyStableUnderPermutedPresentation) {
  const WordSpace ws(3, 3);
  EmbedRequest a = mixed_request(3, 3, {4, 9}, {30, 60, ws.edge_word(4, 2)});
  EmbedRequest b = mixed_request(3, 3, {9, 4, 9},
                                 {60, ws.edge_word(4, 2), 30, 60});
  const CacheKey ka = service::canonical_key(a);
  const CacheKey kb = service::canonical_key(b);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(service::CacheKeyHash{}(ka), service::CacheKeyHash{}(kb));
  // The incident edge collapsed out of the canonical key entirely.
  EXPECT_EQ(ka.faults, (std::vector<Word>{4, 9}));
  EXPECT_EQ(ka.edge_faults, (std::vector<Word>{30, 60}));
}

TEST(FaultSetCanonicalize, NodeAndEdgeWordsDoNotCollide) {
  // The same numeric word as a node fault vs as an edge fault must produce
  // different canonical keys (and different answers).
  EmbedRequest node_side = mixed_request(2, 5, {6}, {});
  EmbedRequest edge_side = mixed_request(2, 5, {}, {6});
  EXPECT_NE(service::canonical_key(node_side), service::canonical_key(edge_side));
}

// --- engine dispatch + oracle ----------------------------------------------

TEST(MixedFaultEngine, AutoResolvesMixedKind) {
  EmbedEngine engine;
  EmbedRequest req = mixed_request(3, 3, {5}, {40});
  req.strategy = Strategy::kAuto;
  const EmbedResponse resp = engine.query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.result->strategy_used, Strategy::kMixed);
  EXPECT_TRUE(verify::check_response(req, *resp.result).ok())
      << verify::check_response(req, *resp.result).to_string();
}

TEST(MixedFaultEngine, RejectsMalformedRequests) {
  EmbedEngine engine;
  {
    // edge_faults on a homogeneous request.
    EmbedRequest req;
    req.base = 2;
    req.n = 4;
    req.fault_kind = FaultKind::kNode;
    req.faults = {1};
    req.edge_faults = {3};
    EXPECT_EQ(engine.query(req).result->status, EmbedStatus::kBadRequest);
  }
  {
    // mixed strategy over node faults.
    EmbedRequest req;
    req.base = 2;
    req.n = 4;
    req.fault_kind = FaultKind::kNode;
    req.strategy = Strategy::kMixed;
    EXPECT_EQ(engine.query(req).result->status, EmbedStatus::kBadRequest);
  }
  {
    // homogeneous strategy over mixed faults.
    EmbedRequest req = mixed_request(2, 4, {1}, {3});
    req.strategy = Strategy::kFfc;
    EXPECT_EQ(engine.query(req).result->status, EmbedStatus::kBadRequest);
  }
  {
    // mixed needs n >= 2.
    EmbedRequest req = mixed_request(4, 1, {1}, {3});
    EXPECT_EQ(engine.query(req).result->status, EmbedStatus::kBadRequest);
  }
  {
    // out-of-range edge word.
    EmbedRequest req = mixed_request(2, 3, {1}, {16});
    EXPECT_EQ(engine.query(req).result->status, EmbedStatus::kBadRequest);
  }
}

TEST(MixedFaultEngine, PermutedPresentationHitsTheCache) {
  EmbedEngine engine;
  const EmbedRequest req = mixed_request(3, 4, {7, 21}, {100, 7});
  const EmbedResponse first = engine.query(req);
  ASSERT_TRUE(first.ok());
  EmbedRequest shuffled = mixed_request(3, 4, {21, 7, 7}, {7, 100, 100});
  const EmbedResponse second = engine.query(shuffled);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result, first.result);
}

TEST(MixedFaultEngine, CorrelatedRouterLossSharesTheNodeOnlyCacheEntry) {
  // "Dead router plus its incident links" must canonicalize onto the plain
  // "dead router" entry: one cache line, bit-identical answers.
  EmbedEngine engine;
  const WordSpace ws(2, 6);
  const Word u = 19;
  const EmbedResponse bare = engine.query(mixed_request(2, 6, {u}, {}));
  ASSERT_TRUE(bare.ok());
  std::vector<Word> incident;
  for (Digit a = 0; a < 2; ++a) {
    incident.push_back(ws.edge_word(u, a));
    incident.push_back(ws.edge_word(ws.shift_prepend(u, a), ws.tail(u)));
  }
  const EmbedResponse correlated =
      engine.query(mixed_request(2, 6, {u}, incident));
  EXPECT_TRUE(correlated.cache_hit);
  EXPECT_EQ(correlated.result, bare.result);

  // Routers 1-64 of B(4,5), each presented again with its 2d incident links.
  const WordSpace ws45(4, 5);
  for (Word router = 1; router <= 64; ++router) {
    const EmbedResponse alone = engine.query(mixed_request(4, 5, {router}, {}));
    ASSERT_TRUE(alone.ok()) << "router " << router;
    std::vector<Word> links;
    for (Digit a = 0; a < 4; ++a) {
      links.push_back(ws45.edge_word(router, a));
      links.push_back(ws45.edge_word(ws45.shift_prepend(router, a), ws45.tail(router)));
    }
    const EmbedResponse with_links =
        engine.query(mixed_request(4, 5, {router}, links));
    EXPECT_TRUE(with_links.cache_hit) << "router " << router;
    EXPECT_EQ(with_links.result, alone.result) << "router " << router;
  }
}

TEST(MixedFaultEngine, AllMixedRegimesOracleValidated) {
  // Seeded mixed scenarios through a self-validating engine: every regime
  // must appear, and neither the engine's oracle hook nor a direct oracle
  // pass may flag a violation.
  EngineOptions options;
  options.validate_responses = true;
  EmbedEngine engine(options);
  std::set<verify::Regime> seen;
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    const verify::Scenario sc = verify::make_scenario(seed, Strategy::kMixed);
    seen.insert(sc.regime);
    const EmbedResponse resp = engine.query(sc.request);
    ASSERT_NE(resp.result, nullptr) << sc.describe();
    ASSERT_NE(resp.result->status, EmbedStatus::kInternalError)
        << sc.describe() << ": " << resp.result->error;
    const verify::OracleReport report =
        verify::check_response(sc.request, *resp.result);
    EXPECT_TRUE(report.ok()) << sc.describe() << ": " << report.to_string();
  }
  EXPECT_EQ(engine.validation_stats().violations, 0u);
  EXPECT_TRUE(seen.contains(verify::Regime::kMixedNodeHeavy));
  EXPECT_TRUE(seen.contains(verify::Regime::kMixedEdgeHeavy));
  EXPECT_TRUE(seen.contains(verify::Regime::kMixedCorrelated));
  EXPECT_TRUE(seen.contains(verify::Regime::kFaultFree));
  EXPECT_TRUE(seen.contains(verify::Regime::kBeyondGuarantee));
  EXPECT_TRUE(seen.contains(verify::Regime::kShuffledDuplicates));
}

// --- sessions under mixed churn ---------------------------------------------

TEST(MixedFaultSession, EquivalentToStatelessUnderChurn) {
  EmbedEngine engine;
  EmbedEngine cold(EngineOptions{.enable_cache = false});

  std::vector<verify::ChurnScript> scripts;
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    scripts.push_back(verify::make_churn_script(seed, Strategy::kMixed, 60));
  }
  // A longer timeline on B(4,5) with up to three live faults of each kind.
  EmbedRequest b45;
  b45.base = 4;
  b45.n = 5;
  b45.fault_kind = FaultKind::kMixed;
  scripts.push_back(verify::make_churn_script(42, b45, 120, /*max_live=*/3));
  for (const verify::ChurnScript& script : scripts) {
    EmbedSession session(engine, script.base_request.base,
                         script.base_request.n, FaultKind::kMixed);
    FaultSet live;
    for (const verify::ChurnEvent& event : script.events) {
      if (event.add) {
        session.add_fault(event.kind, event.fault);
      } else {
        session.clear_fault(event.kind, event.fault);
      }
      std::vector<Word>& track =
          event.kind == FaultKind::kEdge ? live.edges : live.nodes;
      if (event.add) {
        track.insert(
            std::lower_bound(track.begin(), track.end(), event.fault),
            event.fault);
      } else {
        track.erase(std::find(track.begin(), track.end(), event.fault));
      }

      const EmbedResponse incremental = session.current_ring();
      EmbedRequest stateless = script.base_request;
      stateless.faults = live.nodes;
      stateless.edge_faults = live.edges;
      const EmbedResponse fresh = cold.query(stateless);
      ASSERT_TRUE(incremental.result && fresh.result) << script.describe();
      ASSERT_TRUE(incremental.result->same_embedding(*fresh.result))
          << script.describe() << " diverged after "
          << (event.add ? "+" : "-") << event.fault;
      const verify::OracleReport report =
          verify::check_response(stateless, *incremental.result);
      ASSERT_TRUE(report.ok())
          << script.describe() << ": " << report.to_string();
    }
    EXPECT_EQ(session.faults(), live.nodes);
    EXPECT_EQ(session.edge_faults(), live.edges);
  }
}

TEST(MixedFaultSession, RouterRepairResurfacesDominatedLinkCut) {
  EmbedEngine engine;
  EmbedSession session(engine, 3, 3, FaultKind::kMixed);
  const WordSpace& ws = session.context()->words();
  const Word u = 5;
  const Word cut = ws.edge_word(u, 1);  // a link out of router u

  session.add_fault(FaultKind::kNode, u);
  session.add_fault(FaultKind::kEdge, cut);
  const EmbedResponse both = session.current_ring();
  ASSERT_TRUE(both.ok());
  // While the router is dead the link fault is dominated: identical answer
  // (and cache entry) to the router-only state.
  const EmbedResponse router_only =
      engine.query(mixed_request(3, 3, {u}, {}));
  EXPECT_TRUE(both.result->same_embedding(*router_only.result));

  // Repairing the router must resurface the cut: the ring now spans every
  // node but still avoids the cut link.
  session.clear_fault(FaultKind::kNode, u);
  const EmbedResponse after = session.current_ring();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.result->ring_length, ws.size());  // phi(3) covers one cut
  EXPECT_FALSE(ring_edge_words(ws, after.result->ring).contains(cut));
}

TEST(MixedFaultSession, HomogeneousSessionRejectsForeignKind) {
  EmbedEngine engine;
  EmbedSession node_session(engine, 2, 5, FaultKind::kNode);
  EXPECT_THROW(node_session.add_fault(FaultKind::kEdge, 3), precondition_error);
  EmbedSession mixed_session(engine, 2, 5, FaultKind::kMixed);
  EXPECT_THROW(mixed_session.add_fault(7), precondition_error);
  EXPECT_THROW(mixed_session.add_fault(FaultKind::kMixed, 7),
               precondition_error);
}

// --- sim driver: kills + link cuts ------------------------------------------

TEST(MixedFaultDriver, DrivesKillsAndLinkCutsThroughOneSession) {
  EmbedEngine engine;
  EmbedSession session(engine, 2, 6, FaultKind::kMixed);
  const WordSpace& ws = session.context()->words();
  sim::Engine net(ws.size(), [&ws](NodeId u, NodeId v) {
    return u < ws.size() && v < ws.size() && ws.suffix(u) == ws.prefix(v);
  });
  sim::SessionDriver driver(net, session);

  const Word dead = 9;
  const Word cut = ws.edge_word(33, 1);
  driver.kill(dead);
  driver.cut_link(cut);
  const EmbedResponse resp = driver.current_ring();
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(net.alive(dead));
  const auto [cu, cv] = ws.edge_endpoints(cut);
  EXPECT_FALSE(net.link_alive(cu, cv));
  for (Word v : resp.result->ring.nodes) EXPECT_NE(v, dead);
  EXPECT_FALSE(ring_edge_words(ws, resp.result->ring).contains(cut));

  driver.repair(dead);
  driver.restore_link(cut);
  EXPECT_TRUE(net.alive(dead));
  EXPECT_TRUE(net.link_alive(cu, cv));
  const sim::ChurnDriveStats& stats = driver.stats();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.link_cuts, 1u);
  EXPECT_EQ(stats.link_restores, 1u);
}

TEST(MixedFaultDriver, ReplaysMixedChurnScripts) {
  EmbedEngine engine;
  const verify::ChurnScript script =
      verify::make_churn_script(3, Strategy::kMixed, 40);
  EmbedSession session(engine, script.base_request.base,
                       script.base_request.n, FaultKind::kMixed);
  const WordSpace& ws = session.context()->words();
  sim::Engine net(ws.size(), [&ws](NodeId u, NodeId v) {
    return u < ws.size() && v < ws.size() && ws.suffix(u) == ws.prefix(v);
  });
  sim::SessionDriver driver(net, session);
  const sim::ChurnDriveStats stats = sim::drive_script(driver, script);
  EXPECT_EQ(stats.rings_embedded + stats.no_embeddings, script.events.size());
  // The final session state matches the script's replayed fault set.
  const FaultSet final = script.final_fault_set();
  EXPECT_EQ(session.faults(), final.nodes);
  EXPECT_EQ(session.edge_faults(), final.edges);
}

}  // namespace
}  // namespace dbr
