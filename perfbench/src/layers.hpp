#pragma once

// The traced run's in-process layer probes: timed calls into the public
// functions of each layer (service engine, caches and sessions; core
// contexts and arena solves; the wire codec; the verify oracle), made from
// the benchmark's own code on the workload's own inputs. Nothing inside the
// program is instrumented.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerInputs {
  const Workload* workload = nullptr;
  std::size_t threads = 1;
  std::vector<EmbedRequest> warmup;   ///< stateless warmup list
  std::vector<EmbedRequest> stream;   ///< timed stateless requests in send order
  std::vector<SessionPlan> sessions;  ///< session_churn plans
  double budget_seconds = 2.0;        ///< wall-time cap of the probes
};

/// In-process timings the wire spans borrow to place core work inside a
/// server-side serve interval: first-use context build per instance and
/// median arena solve per (instance, strategy).
struct LayerEstimates {
  std::map<std::uint64_t, double> build_us;  ///< key: instance_key(base, n)
  std::map<std::uint64_t, double> solve_us;  ///< key: solve_key(base, n, strategy)
  double repair_us = 0.0;                    ///< session splice median
};

std::uint64_t instance_key(dbr::Digit base, unsigned n);
std::uint64_t solve_key(dbr::Digit base, unsigned n, dbr::service::Strategy strategy);

/// Runs every probe, adds the per-layer metrics to `report`, records one
/// span per timed call in `tracer` (pid 2), and returns the estimates.
/// `inproc_qps` receives service.inproc_qps.
LayerEstimates run_layer_probes(const LayerInputs& in, Report& report, Tracer& tracer,
                                double* inproc_qps);

}  // namespace perfbench
