#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/types.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::service {

/// Canonical cache identity of an EmbedRequest. Fault words are sorted and
/// deduplicated, so the same fault set presented in any order (with or
/// without repeats) maps to the same key. kAuto is resolved to the concrete
/// strategy before keying, so `{kAuto}` and the strategy it resolves to share
/// cache entries. Mixed keys additionally collapse every edge fault
/// dominated by a node fault (FaultSet::canonicalize), so "dead router" and
/// "dead router plus its incident links" are one cache entry.
struct CacheKey {
  Digit base = 0;   ///< radix d of the instance.
  unsigned n = 0;   ///< tuple length of the instance.
  FaultKind fault_kind = FaultKind::kNode;  ///< request fault interpretation.
  Strategy strategy = Strategy::kAuto;      ///< resolved (never kAuto when canonical).
  std::vector<Word> faults;       ///< sorted, unique; node words for kNode/kMixed, edge words for kEdge.
  std::vector<Word> edge_faults;  ///< sorted, unique, undominated; kMixed only.

  bool operator==(const CacheKey&) const = default;
};

/// Resolves kAuto to the concrete strategy implied by the fault kind.
Strategy resolve_strategy(const EmbedRequest& request);

/// Builds the canonical key: resolved strategy + sorted/deduplicated faults.
CacheKey canonical_key(const EmbedRequest& request);

/// Hash functor for CacheKey (SplitMix64 mixing over every field).
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

/// Aggregate hit/miss/eviction counters of the result cache.
struct CacheStats {
  std::uint64_t hits = 0;       ///< gets served from the cache.
  std::uint64_t misses = 0;     ///< gets that found nothing.
  std::uint64_t evictions = 0;  ///< LRU evictions under capacity pressure.
  std::uint64_t entries = 0;    ///< entries currently resident.

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded LRU map from canonical request keys to computed embeddings.
/// Keys are distributed across shards by hash. Values are immutable
/// shared_ptrs: a get() returns the exact object a put() stored, so cached
/// answers are bit-identical to the original computation.
///
/// Each shard is the textbook exact LRU under its own mutex: a recency list
/// (most recent first) plus a hash index of list positions. get() is one
/// lookup and one splice to the front; put() inserts or refreshes in place
/// and pops the list tail when the shard is over capacity, so every
/// operation is O(1) whatever the fill. A displaced or evicted value (one
/// ring can be 256 KiB) is released after the shard mutex is dropped.
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards
  /// (at least one entry per shard). `shard_count` >= 1.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shard_count = 16);

  /// Returns the cached value and makes it the shard's most recent entry,
  /// or nullptr.
  std::shared_ptr<const EmbedResult> get(const CacheKey& key);

  /// Inserts or refreshes `key` as the shard's most recent entry, evicting
  /// the shard's least-recently-used entry if full.
  void put(const CacheKey& key, std::shared_ptr<const EmbedResult> value);

  void clear();

  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t size() const;

  /// Summed over shards; each shard's counters are read under its mutex.
  CacheStats stats() const;

 private:
  struct Shard {
    /// Recency order, most recent first. Each node points at its key in
    /// `index`, whose nodes never move.
    using Lru =
        std::list<std::pair<const CacheKey*, std::shared_ptr<const EmbedResult>>>;

    mutable util::Mutex mu;
    Lru lru DBR_GUARDED_BY(mu);
    std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> index
        DBR_GUARDED_BY(mu);
    std::size_t capacity = 0;  ///< set once at construction, then read-only
    std::uint64_t hits DBR_GUARDED_BY(mu) = 0;
    std::uint64_t misses DBR_GUARDED_BY(mu) = 0;
    std::uint64_t evictions DBR_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const CacheKey& key);

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dbr::service
