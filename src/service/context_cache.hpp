#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/instance_context.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::service {

/// Hit/miss counters of the shared per-(base, n) context cache.
struct ContextCacheStats {
  std::uint64_t hits = 0;    ///< lookups served by an existing context
  std::uint64_t misses = 0;  ///< lookups that had to build (or wait failed)
  std::uint64_t entries = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Concurrent cache of immutable InstanceContexts keyed by (base, n).
///
/// Exactly one context is constructed per key: the first thread to miss
/// installs a shared future and builds outside the lock; concurrent misses
/// on the same key block on that future instead of building their own, so
/// there are no duplicate builds and no torn reads. Contexts are shared_ptr
/// values, so callers (sessions, in-flight queries) may pin one beyond an
/// eviction or clear(). A failed build (invalid (base, n)) propagates its
/// exception to every waiter and leaves no entry behind.
///
/// Entries are bounded: beyond `capacity` distinct keys the least recently
/// used entry is dropped (its context stays alive for whoever pinned it),
/// so a workload spanning many instances cannot grow memory without limit.
///
/// The cache is the textbook exact LRU under one mutex: a recency list
/// (most recent first) plus a hash index from key to {future, list
/// position}. A hit is one lookup and one splice to the front; a miss
/// inserts at the front and pops the tail when over capacity. Both are O(1)
/// and the lock is dropped before any build or wait, so it is only ever
/// held for that O(1) bookkeeping.
class ContextCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;
  /// Largest instance, in nodes d^n, the cache builds, so no request can
  /// make it try an arbitrarily large B(d,n). A session solve on B(2,20),
  /// at the limit, took about 0.5 s and 150 MB; and below 2^32 nodes, node
  /// ids fit 32-bit tables.
  static constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 20;

  explicit ContextCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the shared context for (base, n), building it if absent. When
  /// `hit` is non-null it is set to true iff an existing (possibly still
  /// in-flight) context was reused. Throws precondition_error for instances
  /// WordSpace rejects and, before taking the lock, for instances over
  /// kMaxNodes: such a lookup counts no miss and evicts nothing.
  std::shared_ptr<const core::InstanceContext> get_or_build(Digit base,
                                                            unsigned n,
                                                            bool* hit = nullptr);

  /// Drops all entries and resets the hit/miss counters. Pinned contexts
  /// stay valid; the next lookup per key rebuilds.
  void clear();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  ContextCacheStats stats() const;

 private:
  using ContextPtr = std::shared_ptr<const core::InstanceContext>;
  using Future = std::shared_future<ContextPtr>;
  /// Keys in recency order, most recent first.
  using Lru = std::list<std::uint64_t>;

  struct Entry {
    Future future;      ///< ready once the build finished
    Lru::iterator pos;  ///< this key's node in lru_
  };

  static std::uint64_t key_of(Digit base, unsigned n) {
    return (static_cast<std::uint64_t>(base) << 32) | n;
  }

  std::size_t capacity_;
  mutable util::Mutex mu_;
  Lru lru_ DBR_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Entry> index_ DBR_GUARDED_BY(mu_);
  std::uint64_t hits_ DBR_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ DBR_GUARDED_BY(mu_) = 0;
};

}  // namespace dbr::service
