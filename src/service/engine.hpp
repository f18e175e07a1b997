#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "service/cache.hpp"
#include "service/context_cache.hpp"
#include "service/stats.hpp"
#include "service/types.hpp"

namespace dbr::service {

/// Tuning knobs of the EmbedEngine (result caching, context-cache size,
/// validation, repair). Every computed query acquires its fault-independent
/// per-(base, n) InstanceContext through the engine's ContextCache, so a
/// fresh engine is the cold baseline: its first query per instance builds.
struct EngineOptions {
  /// Serve repeats from the result cache. Off, every query computes (the
  /// uncached baseline a cached answer must be bit-identical to).
  bool enable_cache = true;
  std::size_t cache_capacity = 4096;  ///< total entries across shards
  std::size_t cache_shards = 16;      ///< result-cache lock stripes
  /// Bound on distinct (base, n) contexts held at once (LRU beyond it), so
  /// instance-diverse traffic cannot grow memory without limit.
  std::size_t context_cache_capacity = ContextCache::kDefaultCapacity;
  /// Debug mode: run the independent verify/ oracle on every computed
  /// answer (every cache miss). A violation is quarantined
  /// as kInternalError carrying the oracle's findings (EmbedResult::
  /// quarantined), so it is never cached or mistaken for a correct
  /// embedding. Cache hits are not re-checked: they are bit-identical
  /// copies of an already-validated computation.
  bool validate_responses = false;
  /// Opt-in churn fast path: stateful EmbedSessions on this engine serve
  /// fault-set deltas by locally splicing their previous ring (core/repair
  /// — necklace excision/reinsertion and pull-back detours) instead of a
  /// full re-solve, falling back to the solve path whenever the delta
  /// crosses a construction/family boundary or the spliced ring escapes
  /// the paper's length envelope. Repaired answers are marked
  /// EmbedResponse::repaired, are validity- and envelope-equivalent to a
  /// cold solve (and oracle-checked when validate_responses is on), but
  /// may be a different valid ring; they never enter the result cache.
  /// Stateless query() traffic is unaffected.
  bool incremental_repair = false;
};

/// Counters for the validate_responses debug mode.
struct ValidationStats {
  std::uint64_t checked = 0;     ///< oracle runs (== cache misses validated)
  std::uint64_t violations = 0;  ///< answers the oracle rejected
};

/// Every engine counter family captured as one coherent snapshot (see
/// EmbedEngine::stats_snapshot). The STATS wire op of the networked service
/// serializes exactly this struct.
struct EngineStatsSnapshot {
  ServeStats serve;          ///< engine-lifetime query/hit counters
  CacheStats cache;          ///< result-cache hit/miss/eviction counters
  ContextCacheStats contexts;  ///< per-(base, n) context cache counters
  ValidationStats validation;  ///< validate_responses oracle counters
};

/// Thread-safe ring-embedding query engine over the paper's constructions.
///
/// A query names an instance (base, n, fault set, strategy); the engine
/// canonicalizes the fault set (sort + dedup, so answers are independent of
/// presentation order), serves repeats from a sharded LRU result cache, and
/// otherwise dispatches the fault-dependent solve phase against the shared
/// per-(base, n) InstanceContext:
///
///   kFfc        node faults   -> core::solve_ffc (Chapter 2)
///   kEdgeAuto   edge faults   -> core::solve_edge_auto
///   kEdgeScan   edge faults   -> core::solve_edge_scan
///   kEdgePhi    edge faults   -> core::solve_edge_phi
///   kButterfly  edge faults   -> solve_edge_auto lifted to F(d,n)
///                                (requires gcd(d, n) = 1, Proposition 3.5)
///   kMixed      node + edge   -> core::solve_mixed (Hamiltonian route for
///                                node-free sets, FFC pull-back otherwise)
///
/// Results are immutable and shared with the cache, so a hit returns the
/// exact bytes of the original computation. Two threads missing on the same
/// key may both compute (last put wins); the computation is deterministic,
/// so they produce identical results.
///
/// Concurrency contract (docs/CONCURRENCY.md): the engine itself is
/// mutexless — every counter is an atomic and stats_snapshot() is a seqlock
/// over stats_epoch_ — so there is no capability to annotate here; the
/// locking lives in the member caches (service/cache, service/context_cache),
/// whose contracts are compile-time checked.
class EmbedEngine {
 public:
  explicit EmbedEngine(EngineOptions options = {});

  /// Serves one query: probe() then, on a miss, compute_and_fill().
  /// Thread-safe; the hot (hit) path is one hash plus one lookup and one
  /// recency splice under a result-cache shard mutex.
  EmbedResponse query(const EmbedRequest& request);

  /// First half of a query: counts it and probes the result cache for the
  /// canonical `key`. A hit is counted in result_hits and returned with
  /// cache_hit set; a miss returns nullopt and is finished by exactly one
  /// compute_and_fill() of the same key, so every query is probed and
  /// counted once. Holds one result-cache shard mutex for O(1) work and
  /// never computes, which is what lets net::Server answer hits on its
  /// event loop.
  std::optional<EmbedResponse> probe(const CacheKey& key);

  /// Second half of a query: computes the canonical `key` that probe() just
  /// missed and fills the result cache with a deterministic answer. Never
  /// probes again. A non-null `pinned` context replaces the context-cache
  /// lookup (the query_with_context path).
  EmbedResponse compute_and_fill(const CacheKey& key,
                                 const core::InstanceContext* pinned = nullptr);

  /// Serves one canonical query against a caller-pinned context, bypassing
  /// the context cache but still consulting/filling the result cache. The
  /// EmbedSession solve path: the session pins its instance's context once
  /// and re-solves against it as its fault set churns. `key` must be
  /// canonical (resolved strategy, sorted distinct faults) and `context`
  /// must match (key.base, key.n).
  EmbedResponse query_with_context(
      const CacheKey& key, std::shared_ptr<const core::InstanceContext> context);

  const EngineOptions& options() const { return options_; }
  CacheStats cache_stats() const { return cache_->stats(); }
  ContextCacheStats context_cache_stats() const { return contexts_->stats(); }
  ValidationStats validation_stats() const;
  /// Engine-lifetime query/result-hit/context-hit counters (see ServeStats).
  ServeStats serve_stats() const;
  /// One *coherent* snapshot of every counter family, safe against a
  /// concurrent clear_cache(): a seqlock around the clear guarantees the
  /// snapshot never mixes pre-clear hit counters with post-clear query
  /// counts (a torn read that would report hit rates above 1). Queries in
  /// flight during the clear may still contribute a hit whose query count
  /// was wiped, so per-counter skew is bounded by the number of concurrently
  /// serving threads — never by the discarded history. This is what the
  /// networked service's STATS op serves.
  EngineStatsSnapshot stats_snapshot() const;
  /// Drops cached results and resets the result-cache observability
  /// counters *coherently*: CacheStats and the engine-lifetime ServeStats
  /// (queries/result_hits/context_hits/context_misses) restart together,
  /// so no post-clear report can mix fresh denominators with stale hit
  /// counters (a hit_rate artificially above 1). Cached contexts and
  /// ValidationStats are unaffected.
  void clear_cache();

  /// The engine's context cache. Sessions pin individual contexts (the
  /// shared_ptr values it hands out), not the cache itself.
  ContextCache& context_cache() { return *contexts_; }

 private:
  std::shared_ptr<const EmbedResult> compute(
      const CacheKey& key, bool* context_hit,
      const core::InstanceContext* pinned = nullptr) const;

  EngineOptions options_;
  std::unique_ptr<ShardedLruCache> cache_;
  std::unique_ptr<ContextCache> contexts_;
  mutable std::atomic<std::uint64_t> validations_{0};
  mutable std::atomic<std::uint64_t> violations_{0};
  /// Seqlock guarding clear_cache() against stats_snapshot(): odd while a
  /// clear is resetting the counter families below, bumped to even when the
  /// reset is complete. Snapshot readers retry across any overlap.
  mutable std::atomic<std::uint64_t> stats_epoch_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> result_hits_{0};
  std::atomic<std::uint64_t> context_hits_{0};
  std::atomic<std::uint64_t> context_misses_{0};
};

}  // namespace dbr::service
