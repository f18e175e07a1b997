#pragma once

/// \file
/// Clang thread-safety annotation shims and the repo's annotated lock
/// vocabulary.
///
/// Every mutex-bearing component (service/cache, service/context_cache,
/// net/server, util/parallel) declares its locking contract through these
/// macros and wrapper types, so the contract is machine-checked
/// by Clang's `-Wthread-safety` analysis (the CI static-analysis job builds
/// with `-Wthread-safety -Werror=thread-safety`) instead of living only in
/// comments. Under GCC — the tier-1 toolchain — every macro compiles to
/// nothing and the wrappers are zero-cost aliases of the std primitives
/// (static-asserted in tests/test_context_cache.cpp), so annotated code is
/// bit-identical to the unannotated build.
///
/// Vocabulary (mirrors the Clang documentation's canonical mutex.h):
///  * `DBR_CAPABILITY(name)`        — a class is a lockable capability;
///  * `DBR_SCOPED_CAPABILITY`       — an RAII class acquiring in its ctor
///                                    and releasing in its dtor;
///  * `DBR_GUARDED_BY(mu)`          — a field readable/writable only while
///                                    `mu` is held;
///  * `DBR_PT_GUARDED_BY(mu)`       — same, for the pointee of a pointer;
///  * `DBR_REQUIRES(mu)` /
///    `DBR_REQUIRES_SHARED(mu)`     — a function callable only with `mu`
///                                    held (exclusively resp. shared);
///  * `DBR_EXCLUDES(mu)`            — a function callable only with `mu`
///                                    *not* held (deadlock contracts);
///  * `DBR_ACQUIRE`/`DBR_RELEASE` (+ `_SHARED`, `DBR_RELEASE_GENERIC`,
///    `DBR_TRY_ACQUIRE`)            — lock/unlock primitives;
///  * `DBR_NO_THREAD_SAFETY_ANALYSIS` — opt a function out (used only with a
///                                    justifying comment; the invariant
///                                    linter flags bare escapes).

#include <condition_variable>
#include <mutex>

// The attributes exist in Clang only; GCC builds compile them away entirely.
#if defined(__clang__) && (!defined(SWIG))
#define DBR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DBR_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define DBR_CAPABILITY(x) DBR_THREAD_ANNOTATION(capability(x))
#define DBR_SCOPED_CAPABILITY DBR_THREAD_ANNOTATION(scoped_lockable)
#define DBR_GUARDED_BY(x) DBR_THREAD_ANNOTATION(guarded_by(x))
#define DBR_PT_GUARDED_BY(x) DBR_THREAD_ANNOTATION(pt_guarded_by(x))
#define DBR_ACQUIRED_BEFORE(...) DBR_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DBR_ACQUIRED_AFTER(...) DBR_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define DBR_REQUIRES(...) DBR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DBR_REQUIRES_SHARED(...) \
  DBR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define DBR_ACQUIRE(...) DBR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DBR_ACQUIRE_SHARED(...) \
  DBR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define DBR_RELEASE(...) DBR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DBR_RELEASE_SHARED(...) \
  DBR_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define DBR_RELEASE_GENERIC(...) \
  DBR_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define DBR_TRY_ACQUIRE(...) \
  DBR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define DBR_TRY_ACQUIRE_SHARED(...) \
  DBR_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define DBR_EXCLUDES(...) DBR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define DBR_ASSERT_CAPABILITY(x) DBR_THREAD_ANNOTATION(assert_capability(x))
#define DBR_RETURN_CAPABILITY(x) DBR_THREAD_ANNOTATION(lock_returned(x))
#define DBR_NO_THREAD_SAFETY_ANALYSIS \
  DBR_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dbr::util {

/// Annotated std::mutex: the only mutex type the repo uses directly (the
/// invariant linter rejects naked std::mutex members outside this header).
/// Declaring one names a capability Clang can track; pair it with
/// DBR_GUARDED_BY on the fields it protects.
class DBR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Acquires the mutex (blocking).
  void lock() DBR_ACQUIRE() { mu_.lock(); }
  /// Releases the mutex.
  void unlock() DBR_RELEASE() { mu_.unlock(); }
  /// Acquires without blocking; true when the lock was taken.
  bool try_lock() DBR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop with std::condition_variable
  /// (see CondVar/UniqueLock below). Bypasses the analysis — prefer the
  /// wrappers.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII exclusive lock over a Mutex — the annotated std::lock_guard. The
/// analysis knows the capability is held from construction to scope exit.
class DBR_SCOPED_CAPABILITY MutexLock {
 public:
  /// Acquires `mu` for the lifetime of the guard.
  explicit MutexLock(Mutex& mu) DBR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DBR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII lock over a Mutex that a CondVar can wait on — the annotated
/// std::unique_lock. To the analysis the capability is held for the guard's
/// whole scope; CondVar::wait's internal unlock/relock is invisible, which
/// is sound because wait() always reacquires before returning. Write wait
/// loops as `while (!cond) cv.wait(lk);` so the condition reads check out
/// against the held capability.
class DBR_SCOPED_CAPABILITY UniqueLock {
 public:
  /// Acquires `mu` for the lifetime of the guard.
  explicit UniqueLock(Mutex& mu) DBR_ACQUIRE(mu) : lk_(mu.native()) {}
  // The std::unique_lock member releases on destruction; the empty body
  // (rather than `= default`) keeps the release annotation attachable.
  ~UniqueLock() DBR_RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// The wrapped std::unique_lock a std::condition_variable waits on.
  std::unique_lock<std::mutex>& native() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable paired with UniqueLock. wait() carries no annotation:
/// the capability is continuously claimed by the UniqueLock (see above), so
/// guarded condition reads around the wait are still analysis-checked.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; `lk` is released while blocked and reacquired
  /// before returning, exactly like std::condition_variable::wait.
  void wait(UniqueLock& lk) { cv_.wait(lk.native()); }

  /// Wakes one waiter.
  void notify_one() { cv_.notify_one(); }
  /// Wakes every waiter.
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dbr::util
