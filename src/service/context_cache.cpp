#include "service/context_cache.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "util/require.hpp"

namespace dbr::service {

ContextCache::ContextCache(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "ContextCache requires capacity >= 1");
}

std::shared_ptr<const core::InstanceContext> ContextCache::get_or_build(
    Digit base, unsigned n, bool* hit) {
  const std::uint64_t key = key_of(base, n);
  // Engaged only on a miss: a promise allocates its shared state, which a
  // hit has no use for.
  std::optional<std::promise<ContextPtr>> promise;
  Future future;
  {
    // Declared before the lock, so an evicted context is released after the
    // unlock (unless a caller still pins it).
    Future evicted;
    const util::MutexLock lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      ++hits_;
      future = it->second.future;
    } else {
      ++misses_;
      future = promise.emplace().get_future().share();
      // Built aside and spliced in (which cannot throw), so a failed
      // allocation leaves the list and the index as they were.
      Lru node{key};
      index_.emplace(key, Entry{future, node.begin()});
      lru_.splice(lru_.begin(), node);
      if (index_.size() > capacity_) {
        // Never the entry just inserted: it sits at the front.
        const auto victim = index_.find(lru_.back());
        evicted = std::move(victim->second.future);
        index_.erase(victim);
        lru_.pop_back();
      }
    }
  }
  const bool builder = promise.has_value();
  if (hit != nullptr) *hit = !builder;
  if (promise) {
    try {
      promise->set_value(core::InstanceContext::make(base, n));
    } catch (...) {
      {
        // Drop the entry before waking waiters so lookups racing the wake
        // never find a dead future; invalid instances are never cached.
        const util::MutexLock lock(mu_);
        if (const auto it = index_.find(key); it != index_.end()) {
          lru_.erase(it->second.pos);
          index_.erase(it);
        }
      }
      promise->set_exception(std::current_exception());
    }
  }
  try {
    return future.get();  // rethrows a build failure for every waiter
  } catch (...) {
    if (!builder) {
      // A waiter that joined a build which then failed did not reuse
      // anything: reclassify its lookup as a miss ("wait failed"). The
      // decrement saturates so a concurrent clear() cannot underflow it.
      {
        const util::MutexLock lock(mu_);
        if (hits_ > 0) --hits_;
        ++misses_;
      }
      if (hit != nullptr) *hit = false;
    }
    throw;
  }
}

void ContextCache::clear() {
  // Declared before the lock: the dropped contexts are released after the
  // unlock (unless a caller still pins them).
  std::unordered_map<std::uint64_t, Entry> released;
  const util::MutexLock lock(mu_);
  released.swap(index_);
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::size_t ContextCache::size() const {
  const util::MutexLock lock(mu_);
  return index_.size();
}

ContextCacheStats ContextCache::stats() const {
  const util::MutexLock lock(mu_);
  ContextCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.entries = index_.size();
  return out;
}

}  // namespace dbr::service
