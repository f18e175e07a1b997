// Concurrency contract of the service ContextCache: one context constructed
// per key no matter how many threads miss at once, no torn reads on the
// lazily built sections, failed builds never cached, instances over the
// node limit refused without a trace, clear() starts a fresh observation
// window. Also the contract of the annotated lock wrappers the
// cache (and every other mutex-bearing component) locks through: identical
// semantics to the std primitives, zero size cost on any compiler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/context_cache.hpp"
#include "service/engine.hpp"
#include "util/require.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::service {
namespace {

struct KeyShape {
  Digit d;
  unsigned n;
};

TEST(ContextCacheTest, HitsReturnTheSameSharedContext) {
  ContextCache cache;
  bool hit = true;
  const auto first = cache.get_or_build(2, 6, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_build(2, 6, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
  const ContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ContextCacheTest, MultiThreadHammerBuildsExactlyOneContextPerKey) {
  constexpr KeyShape kKeys[] = {{2, 6}, {2, 8}, {3, 4}, {5, 3}};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 50;

  ContextCache cache;
  util::Mutex mu;
  std::vector<std::vector<const core::InstanceContext*>> seen(
      std::size(kKeys));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        const std::size_t k = (t + i) % std::size(kKeys);
        const auto ctx = cache.get_or_build(kKeys[k].d, kKeys[k].n);
        // Exercise the lazy sections concurrently: a torn read here would
        // surface as an inconsistent size or a sanitizer report.
        ASSERT_EQ(ctx->necklaces().min_rot.size(), ctx->words().size());
        ASSERT_FALSE(ctx->psi_family().cycles.empty());
        const util::MutexLock lock(mu);
        seen[k].push_back(ctx.get());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t k = 0; k < std::size(kKeys); ++k) {
    ASSERT_FALSE(seen[k].empty());
    for (const core::InstanceContext* p : seen[k]) {
      EXPECT_EQ(p, seen[k].front()) << "duplicate context for key " << k;
    }
  }
  const ContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, std::size(kKeys));  // one build per key, ever
  EXPECT_EQ(stats.hits, kThreads * kIterations - std::size(kKeys));
  EXPECT_EQ(stats.entries, std::size(kKeys));
}

TEST(ContextCacheTest, CapacityEvictsTheLeastRecentlyUsedEntry) {
  ContextCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const auto pinned = cache.get_or_build(2, 6);  // key A
  cache.get_or_build(3, 4);                      // key B
  cache.get_or_build(2, 6);                      // touch A: B is now LRU
  cache.get_or_build(5, 3);                      // key C evicts B
  EXPECT_EQ(cache.size(), 2u);
  bool hit = false;
  cache.get_or_build(2, 6, &hit);
  EXPECT_TRUE(hit);  // A survived
  cache.get_or_build(5, 3, &hit);
  EXPECT_TRUE(hit);  // C survived
  cache.get_or_build(3, 4, &hit);
  EXPECT_FALSE(hit);  // B was evicted and had to rebuild
  // The evicted-then-rebuilt entry displaced something, but the pinned
  // context from the original build stays fully usable regardless.
  EXPECT_EQ(pinned->necklaces().min_rot.size(), pinned->words().size());
}

TEST(ContextCacheTest, FailedBuildsPropagateAndAreNeverCached) {
  ContextCache cache;
  EXPECT_THROW(cache.get_or_build(1, 3), precondition_error);  // d < 2
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(cache.get_or_build(1, 3), precondition_error);  // retried
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ContextCacheTest, OverLimitInstancesCountNoMissAndEvictNothing) {
  static_assert(ContextCache::kMaxNodes == std::uint64_t{1} << 20);
  ContextCache cache(1);
  const auto live = cache.get_or_build(2, 6);
  // 2^21 and 1025^2 = 1,050,625 nodes are just past the limit; 2^40 and
  // 3^4000 saturate the count instead of overflowing or looping n times.
  for (const KeyShape shape :
       {KeyShape{2, 21}, KeyShape{1025, 2}, KeyShape{2, 40}, KeyShape{3, 4000}}) {
    try {
      cache.get_or_build(shape.d, shape.n);
      ADD_FAILURE() << "B(" << shape.d << "," << shape.n << ") was built";
    } catch (const precondition_error& e) {
      const std::string instance = "B(" + std::to_string(shape.d) + "," +
                                   std::to_string(shape.n) + ")";
      EXPECT_NE(std::string(e.what()).find(instance), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("limit of 1048576"),
                std::string::npos)
          << e.what();
    }
  }
  // No miss counted, no slot taken: the one live entry is still a hit.
  EXPECT_EQ(cache.stats().misses, 1u);
  bool hit = false;
  EXPECT_EQ(cache.get_or_build(2, 6, &hit).get(), live.get());
  EXPECT_TRUE(hit);
}

TEST(ContextCacheTest, ClearDropsEntriesAndResetsCountersButNotPins) {
  ContextCache cache;
  const auto pinned = cache.get_or_build(2, 6);
  cache.get_or_build(2, 6);
  cache.clear();
  const ContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  // The pinned context stays fully usable after the cache forgot it.
  EXPECT_EQ(pinned->necklaces().min_rot.size(), pinned->words().size());
  // And the next lookup is a fresh build.
  bool hit = true;
  const auto rebuilt = cache.get_or_build(2, 6, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(rebuilt.get(), pinned.get());
}

// --------------------------------------------------------------------------
// Coherent stats snapshots under concurrent clear_cache().

// Regression hammer for EmbedEngine::stats_snapshot(): reader threads pull
// snapshots while one thread serves queries and another repeatedly calls
// clear_cache(). Without the seqlock around the clear, a snapshot can catch
// the counter families mid-reset — e.g. pre-clear result_hits against a
// freshly zeroed query count, a hit rate above 1 that no execution ever
// produced. The invariant checked on *every* snapshot: result_hits never
// exceeds queries by more than the number of concurrently serving threads
// (the documented bound — an in-flight query may contribute a hit whose
// query count was wiped, so the slack is the serve concurrency, never the
// discarded history).
TEST(EngineStatsSnapshotTest, CoherentUnderConcurrentClear) {
  EmbedEngine engine;
  EmbedRequest req;
  req.base = 2;
  req.n = 11;
  req.fault_kind = FaultKind::kNode;
  req.faults = {3};
  engine.query(req);  // seed the cache so hits dominate

  constexpr int kQueryThreads = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) engine.query(req);
    });
  }
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.clear_cache();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const EngineStatsSnapshot snap = engine.stats_snapshot();
        if (snap.serve.result_hits > snap.serve.queries + kQueryThreads)
          violations.fetch_add(1, std::memory_order_relaxed);
        // Cross-family coherence: the result cache's own hit counter must
        // also stay consistent with the serve-side query count.
        if (snap.cache.hits > snap.serve.queries + kQueryThreads)
          violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : queriers) t.join();
  clearer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

// --- annotated lock wrappers (util/thread_annotations.hpp) ------------------

// Zero-cost contract: the annotations are attributes only, so every wrapper
// must be layout-identical to the std primitive it wraps (locks hold exactly
// the reference/handle the std guard would).
static_assert(sizeof(util::Mutex) == sizeof(std::mutex));
static_assert(sizeof(util::CondVar) == sizeof(std::condition_variable));
static_assert(sizeof(util::MutexLock) == sizeof(util::Mutex*));
static_assert(sizeof(util::UniqueLock) == sizeof(std::unique_lock<std::mutex>));
static_assert(alignof(util::Mutex) == alignof(std::mutex));

TEST(ThreadAnnotationWrappers, MutexMatchesStdMutexSemantics) {
  util::Mutex mu;
  EXPECT_TRUE(mu.try_lock());  // unlocked -> acquired
  // Held by this thread: another thread's try_lock must fail, its blocking
  // lock must wait until the unlock below.
  std::atomic<bool> tried{false};
  std::atomic<bool> locked{false};
  std::thread contender([&] {
    EXPECT_FALSE(mu.try_lock());
    tried.store(true, std::memory_order_release);
    mu.lock();
    locked.store(true, std::memory_order_release);
    mu.unlock();
  });
  while (!tried.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_FALSE(locked.load(std::memory_order_acquire));
  mu.unlock();
  contender.join();
  EXPECT_TRUE(locked.load(std::memory_order_acquire));
  EXPECT_TRUE(mu.try_lock());  // released again
  mu.unlock();
}

TEST(ThreadAnnotationWrappers, MutexLockProvidesMutualExclusion) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  util::Mutex mu;
  long long counter = 0;  // unguarded on purpose: the lock is the test
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        const util::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIncrements);
}

TEST(ThreadAnnotationWrappers, CondVarWakesWaiterUnderUniqueLock) {
  util::Mutex mu;
  util::CondVar cv;
  bool ready = false;
  bool observed = false;
  std::thread waiter([&] {
    util::UniqueLock lk(mu);
    while (!ready) cv.wait(lk);
    observed = true;
  });
  {
    const util::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(observed);
}

}  // namespace
}  // namespace dbr::service
