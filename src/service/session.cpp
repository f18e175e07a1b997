#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "core/repair.hpp"
#include "util/require.hpp"
#include "verify/oracle.hpp"

namespace dbr::service {

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

}  // namespace

EmbedSession::EmbedSession(EmbedEngine& engine, Digit base, unsigned n,
                           FaultKind fault_kind, Strategy strategy)
    : engine_(&engine) {
  key_.base = base;
  key_.n = n;
  key_.fault_kind = fault_kind;
  EmbedRequest probe;
  probe.base = base;
  probe.n = n;
  probe.fault_kind = fault_kind;
  probe.strategy = strategy;
  key_.strategy = resolve_strategy(probe);

  // Pin the shared context first: this validates (base, n) and makes every
  // later re-solve context-build-free.
  context_ = engine.context_cache().get_or_build(base, n);
  const WordSpace& ws = context_->words();

  switch (key_.strategy) {
    case Strategy::kFfc:
      require(fault_kind == FaultKind::kNode,
              "ffc strategy requires node faults");
      break;
    case Strategy::kEdgeAuto:
    case Strategy::kEdgeScan:
    case Strategy::kEdgePhi:
      require(fault_kind == FaultKind::kEdge,
              "edge strategies require edge faults");
      require(n >= 2, "edge-fault strategies require n >= 2");
      break;
    case Strategy::kButterfly:
      require(fault_kind == FaultKind::kEdge,
              "butterfly strategy takes De Bruijn edge-word faults");
      require(n >= 2, "edge-fault strategies require n >= 2");
      require(context_->supports_butterfly(),
              "butterfly lift requires gcd(d, n) = 1");
      break;
    case Strategy::kMixed:
      require(fault_kind == FaultKind::kMixed,
              "mixed strategy requires the mixed fault kind");
      require(n >= 2, "mixed-fault strategy requires n >= 2");
      break;
    case Strategy::kAuto:
      ensure(false, "resolve_strategy never returns kAuto");
  }
  node_limit_ = ws.size();
  edge_limit_ = ws.edge_word_count();
}

std::pair<std::vector<Word>*, Word> EmbedSession::track(FaultKind kind) {
  require(kind != FaultKind::kMixed,
          "a single fault is a node or an edge; kMixed names the session, "
          "not a fault");
  if (key_.fault_kind == FaultKind::kMixed) {
    return kind == FaultKind::kNode
               ? std::pair{&key_.faults, node_limit_}
               : std::pair{&key_.edge_faults, edge_limit_};
  }
  require(kind == key_.fault_kind,
          "fault kind does not match this session's fault kind");
  return {&key_.faults,
          kind == FaultKind::kNode ? node_limit_ : edge_limit_};
}

bool EmbedSession::add_fault(Word fault) {
  require(key_.fault_kind != FaultKind::kMixed,
          "mixed sessions must name the fault kind: add_fault(kind, word)");
  return add_fault(key_.fault_kind, fault);
}

bool EmbedSession::add_fault(FaultKind kind, Word fault) {
  const auto [live, limit] = track(kind);
  require_parts(fault < limit, "fault word ", fault, " out of range for B(",
                key_.base, ",", key_.n, ")");
  const auto it = std::lower_bound(live->begin(), live->end(), fault);
  if (it != live->end() && *it == fault) {
    ++stats_.noop_mutations;  // already faulty: nothing changes, no re-solve
    return false;
  }
  live->insert(it, fault);
  ++stats_.adds;
  dirty_ = true;
  return true;
}

bool EmbedSession::clear_fault(Word fault) {
  require(key_.fault_kind != FaultKind::kMixed,
          "mixed sessions must name the fault kind: clear_fault(kind, word)");
  return clear_fault(key_.fault_kind, fault);
}

bool EmbedSession::clear_fault(FaultKind kind, Word fault) {
  const auto [live, limit] = track(kind);
  (void)limit;  // clearing an out-of-range word is a harmless no-op
  const auto it = std::lower_bound(live->begin(), live->end(), fault);
  if (it == live->end() || *it != fault) {
    ++stats_.noop_mutations;  // was never faulty: nothing changes
    return false;
  }
  live->erase(it);
  ++stats_.removes;
  dirty_ = true;
  return true;
}

void EmbedSession::reset_faults() {
  if (key_.faults.empty() && key_.edge_faults.empty()) {
    ++stats_.noop_mutations;  // already fault-free: keep the memoized ring
    return;
  }
  stats_.removes += key_.faults.size() + key_.edge_faults.size();
  key_.faults.clear();
  key_.edge_faults.clear();
  dirty_ = true;
}

CacheKey EmbedSession::solve_key() const {
  CacheKey key = key_;
  if (key_.fault_kind == FaultKind::kMixed) {
    // The session keeps dominated edge faults live (a router repair must
    // resurface the cut link), so the canonical cross-kind collapse happens
    // per solve. The collapsed key is exactly canonical_key of the
    // equivalent stateless request, so cache entries are shared with it.
    FaultSet set;
    set.nodes = std::move(key.faults);
    set.edges = std::move(key.edge_faults);
    set.canonicalize(key_.base, key_.n);
    key.faults = std::move(set.nodes);
    key.edge_faults = std::move(set.edges);
  }
  return key;
}

bool EmbedSession::try_repair(const CacheKey& key) {
  const Clock::time_point start = Clock::now();
  core::RepairOutcome outcome;
  switch (key_.strategy) {
    case Strategy::kFfc:
      outcome = core::repair_node_ring(*context_, last_.result->ring,
                                       solved_key_.faults, key.faults,
                                       scratch_);
      break;
    case Strategy::kEdgeAuto:
    case Strategy::kEdgeScan:
    case Strategy::kEdgePhi:
      outcome = core::repair_edge_ring(*context_, last_.result->ring,
                                       key.faults);
      break;
    case Strategy::kButterfly:
      outcome = core::repair_butterfly_ring(*context_, last_.result->ring,
                                            key.faults);
      break;
    case Strategy::kMixed:
      outcome = core::repair_mixed_ring(*context_, last_.result->ring,
                                        solved_key_.faults,
                                        solved_key_.edge_faults, key.faults,
                                        key.edge_faults, scratch_);
      break;
    case Strategy::kAuto:
      ensure(false, "resolve_strategy never returns kAuto");
  }
  if (!outcome.repaired()) {
    ++repair_stats_.fell_back;
    return false;
  }

  std::shared_ptr<const EmbedResult> result;
  if (outcome.unchanged &&
      last_.result->lower_bound == outcome.lower_bound &&
      last_.result->upper_bound == outcome.upper_bound) {
    // No-op repair with an unmoved envelope: the previous immutable result
    // serves verbatim — no ring copy, no allocation (the psi-scan family's
    // common case: the new cut misses the ring entirely).
    result = last_.result;
  } else {
    EmbedResult repaired;
    repaired.status = EmbedStatus::kOk;
    repaired.strategy_used = key_.strategy;
    repaired.ring = outcome.ring ? std::move(*outcome.ring)
                                 : last_.result->ring;  // no-op, new bounds
    repaired.ring_length = repaired.ring.length();
    repaired.lower_bound = outcome.lower_bound;
    repaired.upper_bound = outcome.upper_bound;
    repaired.compute_micros = micros_since(start);
    result = std::make_shared<const EmbedResult>(std::move(repaired));
  }

  if (engine_->options().validate_responses) {
    // Repaired rings ride the same oracle paths (check_ring /
    // check_mixed_ring) as engine answers; a veto means a repair bug, so
    // decline to the full solve instead of serving it.
    EmbedRequest request;
    request.base = key.base;
    request.n = key.n;
    request.fault_kind = key.fault_kind;
    request.faults = key.faults;
    request.edge_faults = key.edge_faults;
    request.strategy = key.strategy;
    if (!verify::check_response(request, *result).ok()) {
      ++repair_stats_.fell_back;
      ++repair_stats_.oracle_rejections;
      return false;
    }
  }

  EmbedResponse response;
  // A no-op splice re-serves the previous immutable result; only a ring
  // that actually moved advances the routing epoch (see ring_epoch()).
  if (result.get() != last_.result.get()) ++ring_epoch_;
  response.result = std::move(result);
  response.repaired = true;
  response.latency_micros = micros_since(start);
  last_ = std::move(response);
  solved_key_ = key;
  have_solved_ = true;
  dirty_ = false;
  ++repair_stats_.spliced;
  repair_stats_.repair_micros_total += last_.latency_micros;
  return true;
}

EmbedResponse EmbedSession::current_ring() {
  if (!dirty_) {
    ++stats_.memoized;
    return last_;
  }
  CacheKey key = solve_key();
  // No-op round trip: mutations that leave the canonical solve set where
  // it already was (a dominated link cut added and removed, an add undone
  // before any solve ran) keep the memoized answer — no engine traffic.
  if (have_solved_ && key == solved_key_) {
    dirty_ = false;
    ++stats_.memoized;
    return last_;
  }
  if (engine_->options().incremental_repair && have_solved_ && last_.result &&
      last_.result->status == EmbedStatus::kOk && try_repair(key)) {
    return last_;
  }
  // The result cache can hand back the very result object already served
  // (a fault set that round-tripped through churn); only a genuinely
  // different object advances the routing epoch.
  const EmbedResult* previous_result = last_.result.get();
  last_ = engine_->query_with_context(key, context_);
  if (last_.result.get() != previous_result) ++ring_epoch_;
  // Deterministic answers memoize; a transient failure (kInternalError,
  // never cached by the engine either) leaves the session dirty so the
  // next current_ring() retries instead of pinning a one-off error.
  const EmbedStatus status =
      last_.result ? last_.result->status : EmbedStatus::kInternalError;
  dirty_ = status != EmbedStatus::kOk && status != EmbedStatus::kNoEmbedding;
  have_solved_ = !dirty_;
  if (have_solved_) solved_key_ = std::move(key);
  ++stats_.solves;
  if (last_.cache_hit) ++stats_.result_cache_hits;
  stats_.solve_micros_total += last_.latency_micros;
  return last_;
}

}  // namespace dbr::service
