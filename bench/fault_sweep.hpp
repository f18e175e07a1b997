#pragma once

// The Monte-Carlo experiment behind Tables 2.1 and 2.2: for each fault count
// f, sample f distinct faulty nodes, remove their necklaces, and measure the
// size of the component containing R = 0...01 (or its nearest nonfaulty
// substitute) together with R's eccentricity inside that component. These
// are exactly the length of the FFC cycle and the broadcast rounds of Step
// 1.1 (Section 2.5.2).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/distributed_ffc.hpp"
#include "core/ffc.hpp"
#include "graph/algorithms.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dbr::bench {

struct SweepRow {
  unsigned faults = 0;
  double avg_size = 0;
  std::uint64_t max_size = 0;
  std::uint64_t min_size = 0;
  std::int64_t dn_minus_nf = 0;
  double avg_ecc = 0;
  std::uint32_t max_ecc = 0;
  std::uint32_t min_ecc = 0;
};

inline SweepRow fault_sweep_row(const core::FfcSolver& solver, unsigned f,
                                std::uint64_t num_trials, std::uint64_t seed) {
  const auto& graph = solver.graph();
  const WordSpace& ws = graph.words();
  const core::DistributedFfcSolver root_picker(graph);
  SweepRow row;
  row.faults = f;
  row.dn_minus_nf =
      static_cast<std::int64_t>(ws.size()) - static_cast<std::int64_t>(ws.length()) * f;
  double sum_size = 0, sum_ecc = 0;
  row.min_size = std::numeric_limits<std::uint64_t>::max();
  row.min_ecc = std::numeric_limits<std::uint32_t>::max();
  // One RNG stream per trial: a trial's draw depends only on (seed, f, t).
  for (std::size_t t = 0; t < num_trials; ++t) {
    Rng rng = Rng(seed + f).split(t);
    const auto faults = rng.sample_distinct(ws.size(), f);
    // R = 0...01, or the nearest nonfaulty node when its necklace died.
    const Word root = root_picker.default_root(faults);
    const auto active = solver.active_mask(faults);
    const auto comp = solver.component_of(active, root);
    std::uint64_t size = 0;
    for (Word v = 0; v < ws.size(); ++v) size += comp[v] ? 1 : 0;
    const SubgraphView<DeBruijnDigraph> view(graph, comp);
    const std::uint32_t ecc =
        bfs(view, root, [&](NodeId v) { return comp[v]; }).eccentricity();
    sum_size += static_cast<double>(size);
    sum_ecc += ecc;
    row.max_size = std::max(row.max_size, size);
    row.min_size = std::min(row.min_size, size);
    row.max_ecc = std::max(row.max_ecc, ecc);
    row.min_ecc = std::min(row.min_ecc, ecc);
  }
  row.avg_size = sum_size / static_cast<double>(num_trials);
  row.avg_ecc = sum_ecc / static_cast<double>(num_trials);
  return row;
}

inline TextTable fault_sweep_table(Digit d, unsigned n,
                                   const std::vector<unsigned>& fault_counts,
                                   std::uint64_t num_trials, std::uint64_t seed) {
  const core::FfcSolver solver{DeBruijnDigraph(d, n)};
  TextTable table({"f", "Avg. Size", "Max. Size", "Min. Size", "d^n - nf",
                   "Avg. Ecc.", "Max. Ecc.", "Min. Ecc."});
  for (unsigned f : fault_counts) {
    const SweepRow row = fault_sweep_row(solver, f, num_trials, seed);
    table.new_row()
        .add(row.faults)
        .add(row.avg_size, 2)
        .add(row.max_size)
        .add(row.min_size)
        .add(row.dn_minus_nf)
        .add(row.avg_ecc, 2)
        .add(row.max_ecc)
        .add(row.min_ecc);
  }
  return table;
}

/// The fault counts used by the paper's Tables 2.1/2.2.
inline std::vector<unsigned> paper_fault_counts() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50};
}

}  // namespace dbr::bench
