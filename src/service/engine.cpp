#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "butterfly/lift.hpp"
#include "core/butterfly_embedding.hpp"
#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/mixed_fault.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "verify/oracle.hpp"

namespace dbr::service {

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// Fails fast on every documented precondition before any construction
/// runs: strategy/fault-kind mismatch, n < 2 for the edge-fault
/// constructions, gcd(d, n) != 1 for the butterfly lift, and fault words
/// out of range for (base, n). Each message names the precondition so a
/// kBadRequest response tells the caller exactly what to fix.
void require_preconditions(const CacheKey& key, const WordSpace& ws) {
  require(key.fault_kind == FaultKind::kMixed || key.edge_faults.empty(),
          "edge_faults requires the mixed fault kind");
  switch (key.strategy) {
    case Strategy::kFfc:
      require(key.fault_kind == FaultKind::kNode,
              "ffc strategy requires node faults");
      break;
    case Strategy::kEdgeAuto:
    case Strategy::kEdgeScan:
    case Strategy::kEdgePhi:
      require(key.fault_kind == FaultKind::kEdge,
              "edge strategies require edge faults");
      require(key.n >= 2, "edge-fault strategies require n >= 2");
      break;
    case Strategy::kButterfly:
      require(key.fault_kind == FaultKind::kEdge,
              "butterfly strategy takes De Bruijn edge-word faults");
      require(key.n >= 2, "edge-fault strategies require n >= 2");
      require(std::gcd<std::uint64_t, std::uint64_t>(key.base, key.n) == 1,
              "butterfly lift requires gcd(d, n) = 1");
      break;
    case Strategy::kMixed:
      require(key.fault_kind == FaultKind::kMixed,
              "mixed strategy requires the mixed fault kind");
      require(key.n >= 2, "mixed-fault strategy requires n >= 2");
      break;
    case Strategy::kAuto:
      ensure(false, "kAuto must be resolved before dispatch");
  }
  const bool node_words = key.fault_kind != FaultKind::kEdge;
  const Word limit = node_words ? ws.size() : ws.edge_word_count();
  for (Word f : key.faults) {
    require(f < limit, "fault word " + std::to_string(f) +
                           " out of range for B(" + std::to_string(key.base) +
                           "," + std::to_string(key.n) + ")");
  }
  for (Word f : key.edge_faults) {
    require(f < ws.edge_word_count(),
            "fault word " + std::to_string(f) + " out of range for B(" +
                std::to_string(key.base) + "," + std::to_string(key.n) + ")");
  }
}

/// The fault-dependent solve phase: acquires the instance's shared context
/// (which may throw for invalid (base, n)) and dispatches the matching
/// core solve. `acquire` is deferred into the try block so context-build
/// failures map to the same statuses as before the context/solve split.
EmbedResult compute_result(
    const CacheKey& key,
    const std::function<const core::InstanceContext&()>& acquire) {
  EmbedResult out;
  out.strategy_used = key.strategy;
  const Clock::time_point start = Clock::now();
  try {
    const core::InstanceContext& ctx = acquire();
    require_preconditions(key, ctx.words());

    switch (key.strategy) {
      case Strategy::kFfc: {
        core::FfcResult r = core::solve_ffc(ctx, key.faults);
        out.ring = std::move(r.cycle);
        out.ring_length = out.ring.length();
        const auto [lo, hi] =
            core::ffc_cycle_length_bounds(key.base, key.n, key.faults.size());
        out.lower_bound = lo;
        out.upper_bound = hi;
        break;
      }
      case Strategy::kEdgeAuto:
      case Strategy::kEdgeScan:
      case Strategy::kEdgePhi: {
        std::optional<SymbolCycle> hc;
        if (key.strategy == Strategy::kEdgeScan) {
          hc = core::solve_edge_scan(ctx, key.faults);
        } else if (key.strategy == Strategy::kEdgePhi) {
          hc = core::solve_edge_phi(ctx, key.faults);
        } else {
          hc = core::solve_edge_auto(ctx, key.faults);
        }
        if (!hc) {
          out.status = EmbedStatus::kNoEmbedding;
          out.error = "no fault-free Hamiltonian cycle found (fault set beyond "
                      "the strategy's guarantee)";
          break;
        }
        out.ring = to_node_cycle(ctx.words(), *hc);
        out.ring_length = out.ring.length();
        out.lower_bound = ctx.words().size();
        out.upper_bound = ctx.words().size();
        break;
      }
      case Strategy::kButterfly: {
        const std::optional<SymbolCycle> hc = core::solve_edge_auto(ctx, key.faults);
        if (!hc) {
          out.status = EmbedStatus::kNoEmbedding;
          out.error = "no fault-free Hamiltonian cycle found (fault set beyond "
                      "the strategy's guarantee)";
          break;
        }
        out.ring.nodes =
            butterfly::lift_cycle(ctx.butterfly(), to_node_cycle(ctx.words(), *hc));
        out.ring_length = out.ring.length();
        out.lower_bound = static_cast<std::uint64_t>(key.n) * ctx.words().size();
        out.upper_bound = out.lower_bound;
        break;
      }
      case Strategy::kMixed: {
        core::MixedResult r =
            core::solve_mixed(ctx, key.faults, key.edge_faults);
        if (!r.cycle) {
          out.status = EmbedStatus::kNoEmbedding;
          out.error = "no fault-avoiding ring found (the edge pull-back "
                      "closure of the mixed fault set leaves no surviving "
                      "necklace)";
          break;
        }
        out.ring = std::move(*r.cycle);
        out.ring_length = out.ring.length();
        const auto [lo, hi] = core::mixed_ring_length_bounds(
            key.base, key.n, key.faults.size(),
            core::countable_mixed_edge_faults(ctx.words(), key.faults,
                                              key.edge_faults));
        out.lower_bound = lo;
        out.upper_bound = hi;
        break;
      }
      case Strategy::kAuto:
        ensure(false, "kAuto must be resolved before dispatch");
    }
  } catch (const precondition_error& e) {
    out = EmbedResult{};
    out.strategy_used = key.strategy;
    out.status = EmbedStatus::kBadRequest;
    out.error = e.what();
  } catch (const std::exception& e) {
    // Invariant failures and transient conditions (e.g. bad_alloc) are not
    // deterministic answers; kInternalError keeps them out of the cache.
    out = EmbedResult{};
    out.strategy_used = key.strategy;
    out.status = EmbedStatus::kInternalError;
    out.error = e.what();
  }
  out.compute_micros = micros_since(start);
  return out;
}

}  // namespace

EmbedEngine::EmbedEngine(EngineOptions options)
    : options_(options),
      cache_(std::make_unique<ShardedLruCache>(
          std::max<std::size_t>(1, options.cache_capacity),
          std::max<std::size_t>(1, options.cache_shards))),
      contexts_(std::make_unique<ContextCache>(
          std::max<std::size_t>(1, options.context_cache_capacity))) {}

std::shared_ptr<const EmbedResult> EmbedEngine::compute(
    const CacheKey& key, bool* context_hit,
    const core::InstanceContext* pinned) const {
  std::shared_ptr<const core::InstanceContext> owned;  // outlives the solve
  const auto acquire = [&]() -> const core::InstanceContext& {
    if (pinned != nullptr) {
      if (context_hit != nullptr) *context_hit = true;  // reused by definition
      return *pinned;
    }
    if (options_.reuse_contexts) {
      owned = contexts_->get_or_build(key.base, key.n, context_hit);
    } else {
      if (context_hit != nullptr) *context_hit = false;
      owned = core::InstanceContext::make(key.base, key.n);
    }
    return *owned;
  };
  auto result = std::make_shared<const EmbedResult>(compute_result(key, acquire));
  if (!options_.validate_responses) return result;

  // Debug mode: hand every computed answer to the independent oracle. The
  // canonical key is a complete request, so the oracle sees exactly the
  // instance that was dispatched.
  EmbedRequest request;
  request.base = key.base;
  request.n = key.n;
  request.fault_kind = key.fault_kind;
  request.faults = key.faults;
  request.edge_faults = key.edge_faults;
  request.strategy = key.strategy;
  const verify::OracleReport report = verify::check_response(request, *result);
  validations_.fetch_add(1, std::memory_order_relaxed);
  if (report.ok()) return result;

  violations_.fetch_add(1, std::memory_order_relaxed);
  EmbedResult quarantined;
  quarantined.status = EmbedStatus::kInternalError;  // never cached
  quarantined.strategy_used = result->strategy_used;
  quarantined.compute_micros = result->compute_micros;
  quarantined.error = "oracle: " + report.to_string();
  quarantined.quarantined = true;  // batch stats count, never time, these
  return std::make_shared<const EmbedResult>(std::move(quarantined));
}

ValidationStats EmbedEngine::validation_stats() const {
  return {validations_.load(std::memory_order_relaxed),
          violations_.load(std::memory_order_relaxed)};
}

void EmbedEngine::clear_cache() {
  // Seqlock write side: hold the epoch odd across the cache clear and the
  // counter resets so a concurrent stats_snapshot() retries instead of
  // observing half-reset state (e.g. fresh queries with stale result_hits).
  stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // The ServeStats layer must restart with the cache it describes: stale
  // result_hits over a fresh query count would let a post-clear hit_rate
  // exceed 1.0 in throughput reports. Reset order matters even inside the
  // odd-epoch window, because queries keep flowing during the clear:
  // denominators (queries) reset first, hit counters after, and the shard
  // counters of the cache itself last. Traffic interleaving with the clear
  // then regrows every numerator only *alongside* an already-reset
  // denominator, so the post-clear state keeps hit counts within an
  // in-flight-thread bound of the query count — the reverse order would let
  // a preempted clear strand thousands of regrown cache hits against a
  // zeroed query count.
  queries_.store(0, std::memory_order_relaxed);
  result_hits_.store(0, std::memory_order_relaxed);
  context_hits_.store(0, std::memory_order_relaxed);
  context_misses_.store(0, std::memory_order_relaxed);
  cache_->clear();
  stats_epoch_.fetch_add(1, std::memory_order_release);
}

EngineStatsSnapshot EmbedEngine::stats_snapshot() const {
  for (;;) {
    const std::uint64_t before = stats_epoch_.load(std::memory_order_acquire);
    if (before & 1) {  // a clear is mid-flight; wait it out
      std::this_thread::yield();
      continue;
    }
    EngineStatsSnapshot snap;
    // Read counters in *reverse* increment order (a query bumps queries_
    // first, then its hit counters): numerators are captured before their
    // denominator, so concurrent traffic between the loads can only make
    // the later-read query count larger — hit counts never overshoot it,
    // even when the reader is preempted mid-snapshot.
    snap.cache = cache_->stats();
    snap.contexts = contexts_->stats();
    snap.validation = validation_stats();
    snap.serve.result_hits = result_hits_.load(std::memory_order_relaxed);
    snap.serve.context_hits = context_hits_.load(std::memory_order_relaxed);
    snap.serve.context_misses = context_misses_.load(std::memory_order_relaxed);
    snap.serve.queries = queries_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (stats_epoch_.load(std::memory_order_relaxed) == before) return snap;
  }
}

ServeStats EmbedEngine::serve_stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.context_hits = context_hits_.load(std::memory_order_relaxed);
  s.context_misses = context_misses_.load(std::memory_order_relaxed);
  return s;
}

std::shared_ptr<const EmbedResult> EmbedEngine::compute_uncached(
    const EmbedRequest& request) const {
  return compute(canonical_key(request), nullptr);
}

std::optional<EmbedResponse> EmbedEngine::probe(const CacheKey& key) {
  const Clock::time_point start = Clock::now();
  // The query is counted before its hit (stats_snapshot reads them in the
  // reverse order).
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (!options_.enable_cache) return std::nullopt;
  std::shared_ptr<const EmbedResult> hit = cache_->get(key);
  if (!hit) return std::nullopt;
  result_hits_.fetch_add(1, std::memory_order_relaxed);
  EmbedResponse response;
  response.result = std::move(hit);
  response.cache_hit = true;
  response.latency_micros = micros_since(start);
  return response;
}

EmbedResponse EmbedEngine::compute_and_fill(const CacheKey& key,
                                            const core::InstanceContext* pinned) {
  const Clock::time_point start = Clock::now();
  EmbedResponse response;
  bool ctx_hit = false;
  std::shared_ptr<const EmbedResult> computed = compute(key, &ctx_hit, pinned);
  (ctx_hit ? context_hits_ : context_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  response.context_cache_hit = ctx_hit;
  // Only deterministic answers are cacheable: bad requests fail fast and
  // internal errors may be transient (memory pressure, library bugs).
  if (options_.enable_cache && (computed->status == EmbedStatus::kOk ||
                                computed->status == EmbedStatus::kNoEmbedding)) {
    cache_->put(key, computed);
  }
  response.result = std::move(computed);
  response.latency_micros = micros_since(start);
  return response;
}

EmbedResponse EmbedEngine::query(const EmbedRequest& request) {
  const CacheKey key = canonical_key(request);
  if (std::optional<EmbedResponse> hit = probe(key)) return std::move(*hit);
  return compute_and_fill(key);
}

EmbedResponse EmbedEngine::query_with_context(
    const CacheKey& key, std::shared_ptr<const core::InstanceContext> context) {
  require(context != nullptr, "query_with_context requires a context");
  require(context->base() == key.base && context->words().length() == key.n,
          "pinned context does not match the request instance");
  if (std::optional<EmbedResponse> hit = probe(key)) return std::move(*hit);
  return compute_and_fill(key, context.get());
}

std::vector<EmbedResponse> EmbedEngine::query_batch(
    std::span<const EmbedRequest> requests, BatchStats* stats) {
  std::vector<EmbedResponse> responses(requests.size());
  const std::size_t worker_slots = std::max<std::size_t>(
      1, std::min<std::size_t>(worker_count(), requests.size()));
  std::vector<WorkerStats> workers(worker_slots);

  const Clock::time_point start = Clock::now();
  parallel_blocks(requests.size(), [&](std::size_t worker, std::size_t begin,
                                       std::size_t end) {
    WorkerStats& w = workers[worker];
    w.worker = worker;
    const Clock::time_point busy_start = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      responses[i] = query(requests[i]);
      ++w.processed;
      if (responses[i].cache_hit) ++w.cache_hits;
      if (responses[i].context_cache_hit) ++w.context_hits;
      if (responses[i].result && responses[i].result->quarantined) {
        ++w.quarantined;  // a vetoed answer is not a served query
      } else {
        w.latency.record(responses[i].latency_micros);
      }
    }
    w.busy_micros = micros_since(busy_start);
  });
  const double wall = micros_since(start);

  if (stats != nullptr) {
    stats->workers = std::move(workers);
    stats->wall_micros = wall;
  }
  return responses;
}

}  // namespace dbr::service
