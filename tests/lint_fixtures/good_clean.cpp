// Fixture with zero expected violations: the idiomatic forms of everything
// the bad fixtures get wrong, plus one justified suppression.

#include "util/thread_annotations.hpp"

namespace dbr::fixture {

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
