#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/solve_scratch.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

// Heap-allocation budgets of the cold-solve path, counted by replacing the
// global operator new for this binary. A passing check must not allocate,
// and a solve on warm buffers (context sections built, SolveScratch sized
// by an earlier solve) may allocate only for the result it returns.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so GCC never pairs an inlined free() with a new-expression
// at a call site and warns about a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dbr {
namespace {

/// Number of operator new calls made while fn runs (these tests start no
/// other threads).
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocFree, PassingChecksAllocateNothing) {
  volatile bool holds = true;  // not a compile-time constant
  const std::uint64_t n = allocations_during([&] {
    for (Word w = 0; w < 100; ++w) {
      require(holds, "a literal message well past the small-string buffer");
      ensure(holds, "an invariant message well past the small-string buffer");
      require_parts(holds, "fault word ", w, " out of range for B(", Digit{2},
                    ",", 10u, ")");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocFree, LazyMessageMatchesTheEagerText) {
  const Word fault = 1234;
  const unsigned line = __LINE__ + 2;
  try {
    require_parts(fault < 512, "fault word ", fault, " out of range for B(",
                  Digit{2}, ",", 9u, ")");
    FAIL() << "a failing require_parts must throw";
  } catch (const precondition_error& e) {
    const std::string expected = std::string(__FILE__) + ":" +
                                 std::to_string(line) +
                                 ": fault word 1234 out of range for B(2,9)";
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

/// Two different 2-fault sets on B(d,n), drawn from a seeded stream.
std::vector<std::vector<Word>> two_fault_sets(Digit d, unsigned n) {
  Rng rng(0x5eed + d * 100 + n);
  const WordSpace ws(d, n);
  std::vector<std::vector<Word>> out;
  for (int i = 0; i < 2; ++i) out.push_back(rng.sample_distinct(ws.size(), 2));
  return out;
}

TEST(AllocFree, SecondFfcSolveOnWarmScratchAllocatesOnlyItsResult) {
  constexpr std::uint64_t kBudget = 40;
  const std::pair<Digit, unsigned> instances[] = {{2, 12}, {2, 16}, {3, 7},
                                                  {4, 8},  {64, 2}, {16, 3}};
  for (const auto& [d, n] : instances) {
    const auto ctx = core::InstanceContext::make(d, n);
    core::SolveScratch scratch;
    const auto faults = two_fault_sets(d, n);
    const core::FfcResult warm = core::solve_ffc(*ctx, faults[0], scratch);
    ASSERT_GT(warm.cycle.length(), 0u);
    std::uint64_t ring = 0;
    const std::uint64_t n_alloc = allocations_during([&] {
      ring = core::solve_ffc(*ctx, faults[1], scratch).cycle.length();
    });
    EXPECT_GT(ring, 0u);
    EXPECT_LE(n_alloc, kBudget) << "B(" << d << "," << n << ")";
  }
}

// Twelve faults split B(2,12). Both sets leave the active graph
// disconnected; the first keeps root 0, while the second's largest
// component misses node 0, so its solve floods the components and
// broadcasts again from the winner.
TEST(AllocFree, DisconnectedFfcSolveOnWarmScratchAllocatesOnlyItsResult) {
  constexpr std::uint64_t kBudget = 40;
  const auto ctx = core::InstanceContext::make(2, 12);
  core::SolveScratch scratch;
  const Word size = ctx->words().size();
  const core::FfcResult warm =
      core::solve_ffc(*ctx, Rng(9).sample_distinct(size, 12), scratch);
  ASSERT_EQ(warm.root, 0u);
  ASSERT_LT(warm.bstar_size + warm.faulty_node_count, size);
  const std::vector<Word> faults = Rng(10).sample_distinct(size, 12);
  core::FfcResult cold;
  const std::uint64_t n_alloc = allocations_during(
      [&] { cold = core::solve_ffc(*ctx, faults, scratch); });
  ASSERT_NE(cold.root, 0u);
  ASSERT_LT(cold.bstar_size + cold.faulty_node_count, size);
  EXPECT_LE(n_alloc, kBudget);
}

TEST(AllocFree, WarmEdgeAutoSolveAllocatesOnlyItsResult) {
  constexpr std::uint64_t kBudget = 20;
  const auto ctx = core::InstanceContext::make(3, 7);
  Rng rng(0xed6e);
  const Word edges = ctx->words().edge_word_count();
  const std::vector<Word> first{rng.below(edges)};
  const std::vector<Word> second{rng.below(edges)};
  ASSERT_TRUE(core::solve_edge_auto(*ctx, first).has_value());
  bool found = false;
  const std::uint64_t n_alloc = allocations_during(
      [&] { found = core::solve_edge_auto(*ctx, second).has_value(); });
  EXPECT_TRUE(found);
  EXPECT_LE(n_alloc, kBudget);
}

}  // namespace
}  // namespace dbr
