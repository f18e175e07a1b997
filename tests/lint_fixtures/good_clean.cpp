// lint:pretend-path: src/core/mixed_fault.cpp
// Fixture with zero expected violations: the idiomatic forms of everything
// the bad fixtures get wrong, plus one justified suppression. It lints as a
// hot-path file so its scratch-backed check exercises hot-path-heap-alloc.

#include <cstdint>
#include <vector>

#include "util/require.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::fixture {

struct SolveScratch {
  std::vector<std::uint64_t> nodes_tmp;
};

// The lazy check form: the message parts are joined only on failure.
void check_faults_like(SolveScratch& s, std::uint64_t size) {
  for (std::uint64_t v : s.nodes_tmp) {
    require_parts(v < size, "faulty node word ", v, " out of range");
  }
}

struct Registry {
  util::Mutex mu_;
  int guarded_ DBR_GUARDED_BY(mu_) = 0;

  void bump() {
    const util::MutexLock lock(mu_);
    ++guarded_;
  }

  // lint:allow(naked-mutex): fixture demonstrating a justified suppression
  void legacy_interop(std::mutex& external) { external.lock(); }
};

}  // namespace dbr::fixture
