#include "service/cache.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace dbr::service {

Strategy resolve_strategy(const EmbedRequest& request) {
  if (request.strategy != Strategy::kAuto) return request.strategy;
  switch (request.fault_kind) {
    case FaultKind::kNode: return Strategy::kFfc;
    case FaultKind::kEdge: return Strategy::kEdgeAuto;
    case FaultKind::kMixed: return Strategy::kMixed;
  }
  return Strategy::kFfc;
}

CacheKey canonical_key(const EmbedRequest& request) {
  CacheKey key;
  key.base = request.base;
  key.n = request.n;
  key.fault_kind = request.fault_kind;
  key.strategy = resolve_strategy(request);
  // FaultSet::canonicalize is the one canonicalization: sort + dedup each
  // kind, then (kMixed) drop edge faults dominated by a node fault. For the
  // homogeneous kinds edge_faults is passed through untouched, so a request
  // that illegally populates it stays distinguishable and gets rejected.
  FaultSet set;
  set.nodes = request.faults;
  set.edges = request.edge_faults;
  if (request.fault_kind == FaultKind::kMixed) {
    set.canonicalize(request.base, request.n);
  } else {
    std::sort(set.nodes.begin(), set.nodes.end());
    set.nodes.erase(std::unique(set.nodes.begin(), set.nodes.end()),
                    set.nodes.end());
  }
  key.faults = std::move(set.nodes);
  key.edge_faults = std::move(set.edges);
  return key;
}

namespace {

// SplitMix64 finalizer; strong enough to spread sequential words across
// shards and hash buckets.
inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t combine(std::uint64_t seed, std::uint64_t v) {
  return mix(seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

}  // namespace

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::uint64_t h = combine(0x8f1bbcdcu, key.base);
  h = combine(h, key.n);
  h = combine(h, static_cast<std::uint64_t>(key.fault_kind));
  h = combine(h, static_cast<std::uint64_t>(key.strategy));
  // The list length separates the two word streams: without it, a mixed key
  // with nodes [a, b] and no edges would collide with nodes [a], edges [b].
  h = combine(h, key.faults.size());
  for (Word w : key.faults) h = combine(h, w);
  for (Word w : key.edge_faults) h = combine(h, w);
  return static_cast<std::size_t>(h);
}

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shard_count)
    : capacity_(capacity) {
  require(shard_count >= 1, "ShardedLruCache requires at least one shard");
  require(capacity >= 1, "ShardedLruCache requires capacity >= 1");
  shard_count = std::min(shard_count, capacity);
  shards_.reserve(shard_count);
  // Distribute the budget exactly: the first (capacity % shard_count) shards
  // take one extra entry, so shard capacities sum to `capacity`.
  const std::size_t per_shard = capacity / shard_count;
  const std::size_t remainder = capacity % shard_count;
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = per_shard + (i < remainder ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

ShardedLruCache::Shard& ShardedLruCache::shard_for(const CacheKey& key) {
  return *shards_[CacheKeyHash()(key) % shards_.size()];
}

std::shared_ptr<const EmbedResult> ShardedLruCache::get(const CacheKey& key) {
  Shard& shard = shard_for(key);
  const util::MutexLock lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return it->second->second;
}

void ShardedLruCache::put(const CacheKey& key,
                          std::shared_ptr<const EmbedResult> value) {
  Shard& shard = shard_for(key);
  // Declared before the lock, so the displaced or evicted value is
  // released after the unlock.
  std::shared_ptr<const EmbedResult> released;
  const util::MutexLock lock(shard.mu);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    released = std::exchange(it->second->second, std::move(value));
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  // Built aside and spliced in (which cannot throw), so a failed
  // allocation leaves the list and the index as they were.
  Shard::Lru node;
  node.emplace_back(nullptr, std::move(value));
  node.front().first = &shard.index.emplace(key, node.begin()).first->first;
  shard.lru.splice(shard.lru.begin(), node);
  if (shard.index.size() > shard.capacity) {
    released = std::move(shard.lru.back().second);
    shard.index.erase(shard.index.find(*shard.lru.back().first));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ShardedLruCache::clear() {
  // A cleared cache starts a fresh observation window: entries AND the
  // hit/miss/eviction counters reset, so post-clear stats are attributable
  // to post-clear traffic.
  for (auto& shard : shards_) {
    Shard::Lru released;  // declared before the lock: freed after the unlock
    const util::MutexLock lock(shard->mu);
    shard->index.clear();
    released.swap(shard->lru);
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
  }
}

std::size_t ShardedLruCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

CacheStats ShardedLruCache::stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.entries += shard->index.size();
  }
  return out;
}

}  // namespace dbr::service
