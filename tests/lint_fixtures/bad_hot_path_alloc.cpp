// lint:pretend-path: src/core/ffc.cpp
// Fixture: a heap-allocating container constructed inside a
// SolveScratch-backed solve body — the regression the PR 7 allocation-free
// guarantee forbids — and a check message built eagerly with
// std::to_string, which allocates on every passing call. Reference
// bindings to scratch members stay legal.

#include <cstdint>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace dbr::fixture {

struct SolveScratch {
  std::vector<std::uint32_t> comp;
};

int solve_ffc_like(SolveScratch& s) {
  std::vector<std::uint32_t>& comp = s.comp;  // allowed: reference binding
  // expect-violation: hot-path-heap-alloc
  std::vector<std::uint32_t> scratch_local(comp.size(), 0);
  return static_cast<int>(scratch_local.size());
}

void check_faults_like(SolveScratch& s, std::uint64_t word) {
  // expect-violation: hot-path-heap-alloc
  require(word < s.comp.size(), "word " + std::to_string(word) + " too big");
}

}  // namespace dbr::fixture
