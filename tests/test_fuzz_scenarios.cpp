#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "service/engine.hpp"
#include "service/session.hpp"
#include "verify/oracle.hpp"
#include "verify/scenario.hpp"

// Seeded fault-scenario fuzzer: sweeps hundreds of generated scenarios per
// strategy through the query engine and holds every answer against the
// independent verify/ oracle, the uncached baseline, and the
// canonicalization contract. Every assertion message leads with the
// scenario's "(seed=…, base=…, n=…, strategy=…)" tuple; feed the seed back
// into verify::make_scenario(seed, strategy) to reproduce the instance.
//
// Knobs (env): DBR_FUZZ_SCENARIOS  scenarios per strategy (default 200)
//              DBR_FUZZ_SEED       base seed              (default 20260729)

namespace dbr::verify {
namespace {

using service::EmbedEngine;
using service::EmbedRequest;
using service::EmbedResponse;
using service::EmbedStatus;
using service::EngineOptions;
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

/// Reversed and with the first fault duplicated (both word lists): a
/// different presentation of the same fault set, which canonicalization
/// must collapse onto the original cache entry.
EmbedRequest representation_variant(const EmbedRequest& req) {
  EmbedRequest out = req;
  std::reverse(out.faults.begin(), out.faults.end());
  if (!out.faults.empty()) out.faults.push_back(out.faults.back());
  std::reverse(out.edge_faults.begin(), out.edge_faults.end());
  if (!out.edge_faults.empty()) out.edge_faults.push_back(out.edge_faults.back());
  return out;
}

void run_sweep(Strategy strategy) {
  EngineOptions options;
  options.validate_responses = true;
  EmbedEngine engine(options);
  EmbedEngine cold(EngineOptions{.enable_cache = false});

  std::size_t embedded = 0;
  for (const Scenario& sc : make_sweep(base_seed(), strategy, sweep_size())) {
    const EmbedResponse resp = engine.query(sc.request);
    ASSERT_NE(resp.result, nullptr) << "FUZZ FAILURE " << sc.describe();
    // The engine's own validate_responses hook quarantines oracle
    // violations as kInternalError; none may occur.
    ASSERT_NE(resp.result->status, EmbedStatus::kInternalError)
        << "FUZZ FAILURE " << sc.describe() << ": " << resp.result->error;

    const OracleReport report = check_response(sc.request, *resp.result);
    ASSERT_TRUE(report.ok())
        << "FUZZ FAILURE " << sc.describe() << ": " << report.to_string();

    // The cached serving path must be bit-identical to a cold computation.
    const auto baseline = cold.query(sc.request).result;
    ASSERT_TRUE(resp.result->same_embedding(*baseline))
        << "FUZZ FAILURE " << sc.describe()
        << ": cached result differs from an uncached engine's";

    // A permuted/duplicated presentation of the same fault set must hit the
    // entry just written (valid scenario answers are always cacheable).
    const EmbedResponse again = engine.query(representation_variant(sc.request));
    ASSERT_TRUE(again.cache_hit)
        << "FUZZ FAILURE " << sc.describe()
        << ": permuted presentation missed the cache";
    ASSERT_EQ(again.result, resp.result)
        << "FUZZ FAILURE " << sc.describe()
        << ": permuted presentation returned a different object";

    if (resp.result->status == EmbedStatus::kOk) ++embedded;
  }
  EXPECT_EQ(engine.validation_stats().violations, 0u);
  EXPECT_GT(engine.validation_stats().checked, 0u);
  // The regime mix always contains embeddable scenarios; a sweep that never
  // embeds means the generator or the dispatch is broken.
  EXPECT_GT(embedded, sweep_size() / 4);
}

TEST(FuzzScenarios, Auto) { run_sweep(Strategy::kAuto); }
TEST(FuzzScenarios, Ffc) { run_sweep(Strategy::kFfc); }
TEST(FuzzScenarios, EdgeAuto) { run_sweep(Strategy::kEdgeAuto); }
TEST(FuzzScenarios, EdgeScan) { run_sweep(Strategy::kEdgeScan); }
TEST(FuzzScenarios, EdgePhi) { run_sweep(Strategy::kEdgePhi); }
TEST(FuzzScenarios, Butterfly) { run_sweep(Strategy::kButterfly); }
TEST(FuzzScenarios, Mixed) { run_sweep(Strategy::kMixed); }

// Incremental repair regime sweep: seeded churn scripts replayed through a
// repair-enabled session, every served answer held against the oracle and
// the cold stateless baseline. Repaired rings must be oracle-valid with
// the cold solve's envelope; the only legal status divergence is repair
// strictly improving on a beyond-guarantee kNoEmbedding.
TEST(FuzzScenarios, Repair) {
  const std::size_t scripts =
      std::max<std::size_t>(2, sweep_size() / 25);  // scripts x 24 events
  std::uint64_t spliced = 0;
  for (Strategy strategy :
       {Strategy::kFfc, Strategy::kEdgeAuto, Strategy::kEdgeScan,
        Strategy::kEdgePhi, Strategy::kButterfly, Strategy::kMixed}) {
    for (std::size_t i = 0; i < scripts; ++i) {
      const ChurnScript script =
          make_churn_script(base_seed() + i, strategy, 24);
      EngineOptions options;
      options.incremental_repair = true;
      options.validate_responses = true;  // engine-checked fallback solves
      EmbedEngine engine(options);
      service::EmbedSession session(
          engine, script.base_request.base, script.base_request.n,
          script.base_request.fault_kind, script.base_request.strategy);
      EmbedEngine cold(EngineOptions{.enable_cache = false});
      for (const ChurnEvent& event : script.events) {
        if (event.add) {
          session.add_fault(event.kind, event.fault);
        } else {
          session.clear_fault(event.kind, event.fault);
        }
        const EmbedResponse served = session.current_ring();
        EmbedRequest request = script.base_request;
        request.faults = session.faults();
        request.edge_faults = session.edge_faults();
        ASSERT_NE(served.result, nullptr)
            << "FUZZ FAILURE " << script.describe();
        const OracleReport report = check_response(request, *served.result);
        ASSERT_TRUE(report.ok()) << "FUZZ FAILURE " << script.describe()
                                 << ": " << report.to_string();
        const EmbedResponse baseline = cold.query(request);
        if (served.result->status == baseline.result->status) {
          ASSERT_EQ(served.result->lower_bound, baseline.result->lower_bound)
              << "FUZZ FAILURE " << script.describe();
          ASSERT_EQ(served.result->upper_bound, baseline.result->upper_bound)
              << "FUZZ FAILURE " << script.describe();
        } else {
          ASSERT_EQ(served.result->status, EmbedStatus::kOk)
              << "FUZZ FAILURE " << script.describe();
          ASSERT_EQ(baseline.result->status, EmbedStatus::kNoEmbedding)
              << "FUZZ FAILURE " << script.describe();
        }
      }
      // A splice the session-level oracle vetoed is a repair bug even
      // though the fallback kept the served answer correct.
      ASSERT_EQ(session.repair_stats().oracle_rejections, 0u)
          << "FUZZ FAILURE " << script.describe();
      spliced += session.repair_stats().spliced;
    }
  }
  EXPECT_GT(spliced, 0u);
}

// The same edge-fault instance served under the scan, the phi-construction
// and the auto dispatch: every kOk ring must pass the oracle, and auto must
// embed whenever either specialist does (it tries both routes).
TEST(FuzzScenarios, CrossStrategyEdgeConsistency) {
  EmbedEngine engine;
  const std::size_t count = std::min<std::size_t>(sweep_size(), 100);
  for (const Scenario& sc :
       make_sweep(base_seed() ^ 0xC0FFEEull, Strategy::kEdgeAuto, count)) {
    EmbedRequest scan_req = sc.request;
    scan_req.strategy = Strategy::kEdgeScan;
    EmbedRequest phi_req = sc.request;
    phi_req.strategy = Strategy::kEdgePhi;

    const EmbedResponse auto_resp = engine.query(sc.request);
    const EmbedResponse scan_resp = engine.query(scan_req);
    const EmbedResponse phi_resp = engine.query(phi_req);

    ASSERT_TRUE(check_response(sc.request, *auto_resp.result).ok())
        << "FUZZ FAILURE " << sc.describe() << ": "
        << check_response(sc.request, *auto_resp.result).to_string();
    ASSERT_TRUE(check_response(scan_req, *scan_resp.result).ok())
        << "FUZZ FAILURE " << sc.describe() << " (as edge_scan): "
        << check_response(scan_req, *scan_resp.result).to_string();
    ASSERT_TRUE(check_response(phi_req, *phi_resp.result).ok())
        << "FUZZ FAILURE " << sc.describe() << " (as edge_phi): "
        << check_response(phi_req, *phi_resp.result).to_string();

    const bool any_specialist_ok =
        scan_resp.result->status == EmbedStatus::kOk ||
        phi_resp.result->status == EmbedStatus::kOk;
    if (any_specialist_ok) {
      EXPECT_EQ(auto_resp.result->status, EmbedStatus::kOk)
          << "FUZZ FAILURE " << sc.describe()
          << ": a specialist embedded but edge_auto did not";
    }
  }
}

}  // namespace
}  // namespace dbr::verify
