#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/solve_scratch.hpp"
#include "service/types.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "verify/scenario.hpp"

// Metamorphic relations of the rootless FFC solve: checks on which
// component comes back that need no second implementation.
//
// Relation 1. B(d,n)'s symmetries map necklaces to necklaces. A digit
// permutation sigma is an automorphism; word reversal reverses every edge,
// which leaves each strongly connected component one (Section 2.2: faults
// remove whole necklaces and N*'s edges come in antiparallel pairs). So
// mapping the fault set by either changes neither whether the solve throws,
// nor |B*| (the largest component's size), nor N_F. B*'s necklace count is
// compared too when B* holds more than half the active nodes, so that no
// other component can tie with it.
//
// Relation 2. Adding faults only removes nodes, so each component under
// the larger fault set lies inside one under the smaller: for G a superset
// of F, |B*(G)| <= |B*(F)|.
//
// Inputs: the node-fault scenarios of verify::make_sweep for kFfc and
// kAuto, plus seeded sets of 8 to 15 faults on B(2,10), B(3,5) and B(4,4),
// which split the active graph, some so that the root moves off the
// smallest active node; relation 1 asserts that one does.
//
// Knobs (env): DBR_FUZZ_SCENARIOS  scenarios per strategy (default 200)
//              DBR_FUZZ_SEED       base seed              (default 20260729)

namespace dbr {
namespace {

using core::FfcResult;
using core::InstanceContext;
using core::SolveScratch;
using service::FaultKind;
using service::Strategy;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return fallback;
}

std::size_t sweep_size() {
  return static_cast<std::size_t>(env_u64("DBR_FUZZ_SCENARIOS", 200));
}

std::uint64_t base_seed() { return env_u64("DBR_FUZZ_SEED", 20260729); }

struct Case {
  Digit d;
  unsigned n;
  std::vector<Word> faults;
  std::string what;
};

std::vector<Case> make_cases() {
  std::vector<Case> out;
  for (const Strategy strategy : {Strategy::kFfc, Strategy::kAuto}) {
    for (const verify::Scenario& sc :
         verify::make_sweep(base_seed(), strategy, sweep_size())) {
      if (sc.request.fault_kind != FaultKind::kNode) continue;
      out.push_back(
          {sc.request.base, sc.request.n, sc.request.faults, sc.describe()});
    }
  }
  constexpr std::pair<Digit, unsigned> kSplitShapes[] = {{2, 10}, {3, 5},
                                                         {4, 4}};
  const std::uint64_t sets = std::max<std::uint64_t>(16, sweep_size() / 4);
  for (const auto& [d, n] : kSplitShapes) {
    Rng rng(base_seed() + 100 * d + n);
    const Word size = WordSpace(d, n).size();
    for (std::uint64_t k = 0; k < sets; ++k) {
      out.push_back({d, n, rng.sample_distinct(size, 8 + rng.below(8)),
                     "B(" + std::to_string(d) + "," + std::to_string(n) +
                         ") split set " + std::to_string(k)});
    }
  }
  return out;
}

/// Shared per-(base, n) contexts so the cases pay each precompute once.
class ContextPool {
 public:
  const InstanceContext& get(Digit base, unsigned n) {
    const std::uint64_t key = (static_cast<std::uint64_t>(base) << 32) | n;
    auto it = contexts_.find(key);
    if (it == contexts_.end())
      it = contexts_.emplace(key, InstanceContext::make(base, n)).first;
    return *it->second;
  }

 private:
  std::unordered_map<std::uint64_t, std::shared_ptr<const InstanceContext>>
      contexts_;
};

/// The rootless solve, or nullopt when it rejects the fault set (every
/// node faulty). A failed internal check still fails the test.
std::optional<FfcResult> solve(const InstanceContext& ctx,
                               const std::vector<Word>& faults,
                               SolveScratch& scratch) {
  try {
    return core::solve_ffc(ctx, faults, scratch);
  } catch (const precondition_error&) {
    return std::nullopt;
  }
}

/// x with every digit a replaced by sigma[a], its digits reversed if asked.
Word map_word(const WordSpace& ws, Word x, const std::vector<Digit>& sigma,
              bool reverse) {
  Word out = 0;
  for (unsigned i = 0; i < ws.length(); ++i) {
    const Digit a = ws.digit(x, reverse ? ws.length() - 1 - i : i);
    out = out * ws.radix() + sigma[a];
  }
  return out;
}

std::string describe_sigma(const std::vector<Digit>& sigma, bool reverse) {
  std::string out = "sigma =";
  for (const Digit a : sigma) out.append(" ").append(std::to_string(a));
  return out + (reverse ? ", reversed" : "");
}

/// True when the root is not the smallest active node: the active graph is
/// split, and B* is not that node's component.
bool root_moved(const WordSpace& ws, const std::vector<Word>& faults,
                const FfcResult& r) {
  std::vector<Word> reps;
  for (const Word f : faults) reps.push_back(ws.min_rotation(f));
  std::sort(reps.begin(), reps.end());
  Word smallest = 0;
  while (std::binary_search(reps.begin(), reps.end(),
                            ws.min_rotation(smallest))) {
    ++smallest;
  }
  return r.root != smallest;
}

TEST(Metamorphic, RootlessFfcInvariantUnderDigitPermutationAndReversal) {
  ContextPool pool;
  SolveScratch scratch;
  Rng rng(base_seed() + 1);
  std::size_t solved = 0, moved = 0;
  std::uint64_t case_index = 0;
  for (const Case& c : make_cases()) {
    const InstanceContext& ctx = pool.get(c.d, c.n);
    const WordSpace& ws = ctx.words();
    std::vector<Digit> sigma(c.d);
    std::iota(sigma.begin(), sigma.end(), Digit{0});
    for (std::size_t i = sigma.size() - 1; i > 0; --i) {
      std::swap(sigma[i], sigma[rng.below(i + 1)]);
    }
    const bool reverse = case_index++ % 2 == 1;
    std::vector<Word> mapped;
    for (const Word f : c.faults) {
      mapped.push_back(map_word(ws, f, sigma, reverse));
    }
    const std::string what = c.what + ", " + describe_sigma(sigma, reverse);

    const auto original = solve(ctx, c.faults, scratch);
    const auto image = solve(ctx, mapped, scratch);
    ASSERT_EQ(original.has_value(), image.has_value())
        << what << ": one fault set solved, its image threw";
    if (!original) continue;
    ++solved;
    EXPECT_EQ(original->bstar_size, image->bstar_size) << what;
    EXPECT_EQ(original->faulty_node_count, image->faulty_node_count) << what;
    const std::uint64_t active = ws.size() - original->faulty_node_count;
    if (2 * original->bstar_size > active) {
      EXPECT_EQ(original->necklace_count, image->necklace_count) << what;
    }
    if (root_moved(ws, c.faults, *original)) ++moved;
  }
  EXPECT_GT(solved, sweep_size() / 2);
  // At every suite size, some case reaches the branch where the largest
  // component misses the smallest active node.
  EXPECT_GT(moved, 0u) << "no case moved the root off the smallest active node";
}

TEST(Metamorphic, RootlessFfcBStarNeverGrowsWithTheFaultSet) {
  ContextPool pool;
  SolveScratch scratch;
  Rng rng(base_seed() + 2);
  std::size_t compared = 0;
  std::uint64_t case_index = 0;
  for (const Case& c : make_cases()) {
    const InstanceContext& ctx = pool.get(c.d, c.n);
    const auto smaller = solve(ctx, c.faults, scratch);
    // Half the supersets fault nodes of B*(F), which removes part of B*
    // and can hand the answer to another component.
    const bool inside = smaller.has_value() && case_index++ % 2 == 0;
    std::vector<Word> superset = c.faults;
    const std::uint64_t extra = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < extra; ++k) {
      superset.push_back(
          inside ? smaller->cycle.nodes[rng.below(smaller->cycle.length())]
                 : rng.below(ctx.words().size()));
    }
    std::string what = c.what + ", superset adds";
    for (std::size_t k = c.faults.size(); k < superset.size(); ++k) {
      what.append(" ").append(std::to_string(superset[k]));
    }

    const auto larger = solve(ctx, superset, scratch);
    if (!smaller) {
      EXPECT_FALSE(larger.has_value())
          << what << ": every node was faulty, yet the superset solved";
      continue;
    }
    if (!larger) continue;  // the added faults took every node left
    EXPECT_LE(larger->bstar_size, smaller->bstar_size) << what;
    ++compared;
  }
  EXPECT_GT(compared, sweep_size() / 2);
}

}  // namespace
}  // namespace dbr
