// Fault-churn workload for the instance-context architecture.
//
// Two measurements, both on same-(base, n) streams whose fault sets are all
// distinct (so the result cache never serves a repeat and every query pays
// the solve path):
//
//  1. Context reuse vs cold per-query precompute: the same stream through
//     one engine, whose ContextCache shares the per-instance
//     InstanceContext, and through a fresh engine per query, whose empty
//     ContextCache builds it every time. Responses must be bit-identical;
//     the speedup is the hot-path win of the context/solve split.
//
//  2. Session incremental updates: a seeded add/remove fault-churn timeline
//     served by a stateful EmbedSession (pinned context + result cache)
//     vs a cold stateless query per event. Reports per-update latency.
//
//  3. Raw cold-solve speed: the allocation-free arena path (solve_ffc into
//     a reused SolveScratch, leaning on the context's precomputed
//     label-merge tables) vs the legacy per-call-allocation reference
//     (FfcSolver::solve) on the same shared context. Results are asserted
//     bit-identical field for field; the JSON `cold_solve_speedup` field is
//     the number CI's fault-churn smoke gates on.
//
//  4. Incremental repair vs full recompute: the same churn timeline (every
//     event a single-fault delta) through a repair-enabled session
//     (EngineOptions::incremental_repair - core/repair necklace splicing)
//     and a recompute session, result caches off so every event pays its
//     real serve path. Every answer on both sides is held against the
//     verify/ oracle; the bench exits nonzero on any violation or any
//     verdict divergence (other than repair strictly improving on a
//     beyond-guarantee kNoEmbedding, reported as `improved`).
//
// Writes the machine-readable BENCH_fault_churn.json.
//
// Knobs (env):   DBR_SEED
// Knobs (argv):  --queries N        distinct fault sets per family (default 250)
//                --events N         churn events in the session part (default 400)
//                --repair-events N  churn events per repair family  (default 300)
//                --out PATH         JSON path (default BENCH_fault_churn.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/solve_scratch.hpp"
#include "service/engine.hpp"
#include "service/session.hpp"
#include "service/stats.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/word.hpp"
#include "verify/oracle.hpp"
#include "verify/scenario.hpp"

namespace {

using dbr::Digit;
using dbr::Rng;
using dbr::Word;
using dbr::WordSpace;
using dbr::service::EmbedEngine;
using dbr::service::EmbedRequest;
using dbr::service::EmbedResponse;
using dbr::service::EmbedSession;
using dbr::service::EngineOptions;
using dbr::service::FaultKind;
using dbr::service::LatencyRecorder;
using dbr::service::LatencySnapshot;
using dbr::service::Strategy;

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

struct Family {
  const char* name;
  Digit base;
  unsigned n;
  FaultKind kind;
  Strategy strategy;
  std::uint64_t min_faults;
  std::uint64_t max_faults;
};

// One family per construction the context precomputes for: the FFC necklace
// tables, the psi-family index (+ phi machinery via kEdgeAuto), and the
// butterfly lift.
constexpr Family kFamilies[] = {
    {"ffc_node_b2_n12", 2, 12, FaultKind::kNode, Strategy::kFfc, 1, 3},
    {"edge_auto_b4_n6", 4, 6, FaultKind::kEdge, Strategy::kEdgeAuto, 1, 2},
    {"butterfly_b3_n7", 3, 7, FaultKind::kEdge, Strategy::kButterfly, 1, 1},
};

/// `count` requests on one instance with pairwise-distinct fault sets.
std::vector<EmbedRequest> distinct_fault_stream(const Family& family, Rng& rng,
                                                std::size_t count) {
  const WordSpace ws(family.base, family.n);
  const std::uint64_t space = family.kind == FaultKind::kNode
                                  ? ws.size()
                                  : ws.edge_word_count();
  std::set<std::vector<Word>> seen;
  std::vector<EmbedRequest> stream;
  stream.reserve(count);
  // A family can run out of distinct fault sets (e.g. single-fault families
  // have only `space` of them); cap the duplicate redraws so an oversized
  // --queries truncates the stream instead of spinning forever.
  std::uint64_t duplicate_draws = 0;
  const std::uint64_t max_duplicate_draws = 50 * count + 10000;
  while (stream.size() < count && duplicate_draws < max_duplicate_draws) {
    const std::uint64_t f =
        family.min_faults + rng.below(family.max_faults - family.min_faults + 1);
    std::vector<Word> faults;
    for (std::uint64_t v : rng.sample_distinct(space, f)) faults.push_back(v);
    std::vector<Word> key = faults;
    std::sort(key.begin(), key.end());
    if (!seen.insert(std::move(key)).second) {  // keep sets distinct
      ++duplicate_draws;
      continue;
    }
    EmbedRequest req;
    req.base = family.base;
    req.n = family.n;
    req.fault_kind = family.kind;
    req.strategy = family.strategy;
    req.faults = std::move(faults);
    stream.push_back(std::move(req));
  }
  return stream;
}

struct ModeRun {
  double wall_micros = 0.0;
  std::vector<EmbedResponse> responses;
  std::uint64_t context_hits = 0;    ///< computed answers on a reused context
  std::uint64_t context_misses = 0;  ///< computed answers that built one
};

/// Serves `stream` in order: warm on one engine, cold on a fresh engine per
/// query (making and dropping an engine costs under a microsecond, so the
/// cold side pays little beyond its context build).
ModeRun run_stream(const std::vector<EmbedRequest>& stream, bool warm) {
  EmbedEngine engine;
  ModeRun out;
  out.responses.reserve(stream.size());
  const Clock::time_point start = Clock::now();
  for (const EmbedRequest& req : stream) {
    out.responses.push_back(warm ? engine.query(req) : EmbedEngine().query(req));
  }
  out.wall_micros = micros_since(start);
  for (const EmbedResponse& r : out.responses) {
    if (!r.cache_hit) ++(r.context_cache_hit ? out.context_hits : out.context_misses);
  }
  return out;
}

bool all_identical(const std::vector<EmbedResponse>& a,
                   const std::vector<EmbedResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].result || !b[i].result) return false;
    if (!a[i].result->same_embedding(*b[i].result)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kName = "fault_churn";
  constexpr const char* kSummary =
      "context reuse vs cold precompute + session incremental updates; "
      "writes BENCH_fault_churn.json";
  const std::initializer_list<dbr::bench::UsageFlag> kFlags = {
      {"--queries N", "distinct fault sets per family (default 250)"},
      {"--events N", "churn events in the session part (default 400)"},
      {"--repair-events N", "churn events per repair family (default 300)"},
      {"--out PATH", "JSON artifact path (default BENCH_fault_churn.json)"},
  };
  std::size_t queries = 250;
  std::size_t events = 400;
  std::size_t repair_events = 300;
  std::string out_path = "BENCH_fault_churn.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--queries") queries = std::strtoull(next(), nullptr, 10);
    else if (arg == "--events") events = std::strtoull(next(), nullptr, 10);
    else if (arg == "--repair-events") repair_events = std::strtoull(next(), nullptr, 10);
    else if (arg == "--out") out_path = next();
    else return dbr::bench::usage_exit(argv[i], kName, kSummary, kFlags);
  }

  Rng rng(dbr::bench::seed());
  dbr::bench::heading(
      "fault churn: context reuse vs cold per-query precompute");
  std::cout << "queries=" << queries << " per family, events=" << events
            << " (same (base,n), all fault sets distinct)\n";

  dbr::bench::JsonWriter json;
  json.begin_object()
      .field("bench", "fault_churn")
      .field("seed", dbr::bench::seed());
  json.key("config")
      .begin_object()
      .field("queries_per_family", static_cast<std::uint64_t>(queries))
      .field("session_events", static_cast<std::uint64_t>(events))
      .end_object();

  bool identical = true;
  double cold_total = 0.0, warm_total = 0.0;
  dbr::TextTable table({"family", "queries", "cold_us/q", "warm_us/q",
                        "speedup", "ctx_hits"});
  json.key("families").begin_array();
  for (const Family& family : kFamilies) {
    const std::vector<EmbedRequest> stream =
        distinct_fault_stream(family, rng, queries);
    const ModeRun cold = run_stream(stream, /*warm=*/false);
    const ModeRun warm = run_stream(stream, /*warm=*/true);
    const bool same = all_identical(cold.responses, warm.responses);
    identical = identical && same;
    cold_total += cold.wall_micros;
    warm_total += warm.wall_micros;
    const double speedup =
        warm.wall_micros > 0.0 ? cold.wall_micros / warm.wall_micros : 0.0;
    table.new_row()
        .add(family.name)
        .add(static_cast<std::uint64_t>(stream.size()))
        .add(cold.wall_micros / static_cast<double>(stream.size()), 1)
        .add(warm.wall_micros / static_cast<double>(stream.size()), 1)
        .add(speedup, 2)
        .add(warm.context_hits);
    json.begin_object()
        .field("family", family.name)
        .field("base", static_cast<std::uint64_t>(family.base))
        .field("n", family.n)
        .field("strategy", dbr::service::to_string(family.strategy))
        .field("queries", static_cast<std::uint64_t>(stream.size()))
        .field("cold_wall_micros", cold.wall_micros)
        .field("warm_wall_micros", warm.wall_micros)
        .field("speedup", speedup)
        .field("warm_context_hits", warm.context_hits)
        .field("warm_context_misses", warm.context_misses)
        .field("cold_context_hits", cold.context_hits)
        .field("identical_responses", same)
        .end_object();
  }
  json.end_array();
  dbr::bench::emit(table);

  const double overall_speedup = warm_total > 0.0 ? cold_total / warm_total : 0.0;
  std::cout << "overall speedup (context reuse vs cold precompute): "
            << overall_speedup << "x, identical responses: "
            << (identical ? "yes" : "NO") << "\n";

  // --- Raw cold-solve speed: arena path vs legacy allocation path. ---
  dbr::bench::heading("fault churn: raw FFC solve, arena vs legacy allocation");
  const Family& raw_family = kFamilies[0];  // ffc_node_b2_n12
  const std::vector<EmbedRequest> raw_stream =
      distinct_fault_stream(raw_family, rng, queries);
  const auto raw_ctx =
      dbr::core::InstanceContext::make(raw_family.base, raw_family.n);
  const dbr::core::FfcSolver raw_solver(*raw_ctx);
  dbr::core::SolveScratch raw_scratch;

  // Solve first, compare after: the identity audit stays out of both
  // timed loops.
  std::vector<dbr::core::FfcResult> legacy_results, arena_results;
  legacy_results.reserve(raw_stream.size());
  arena_results.reserve(raw_stream.size());
  const Clock::time_point legacy_start = Clock::now();
  for (const EmbedRequest& req : raw_stream)
    legacy_results.push_back(raw_solver.solve(req.faults));
  const double legacy_wall = micros_since(legacy_start);
  const Clock::time_point arena_start = Clock::now();
  for (const EmbedRequest& req : raw_stream)
    arena_results.push_back(dbr::core::solve_ffc(*raw_ctx, req.faults, raw_scratch));
  const double arena_wall = micros_since(arena_start);

  bool raw_identical = true;
  for (std::size_t i = 0; i < raw_stream.size(); ++i) {
    const dbr::core::FfcResult& a = legacy_results[i];
    const dbr::core::FfcResult& b = arena_results[i];
    raw_identical = raw_identical && a.cycle == b.cycle && a.root == b.root &&
                    a.bstar_size == b.bstar_size &&
                    a.root_eccentricity == b.root_eccentricity &&
                    a.faulty_necklace_reps == b.faulty_necklace_reps &&
                    a.faulty_node_count == b.faulty_node_count &&
                    a.necklace_count == b.necklace_count &&
                    a.tree_edges == b.tree_edges &&
                    a.modified_edges == b.modified_edges;
  }
  identical = identical && raw_identical;

  const double cold_solve_speedup =
      arena_wall > 0.0 ? legacy_wall / arena_wall : 0.0;
  dbr::TextTable raw_table(
      {"family", "queries", "legacy_us/q", "arena_us/q", "speedup"});
  raw_table.new_row()
      .add(raw_family.name)
      .add(static_cast<std::uint64_t>(raw_stream.size()))
      .add(legacy_wall / static_cast<double>(raw_stream.size()), 1)
      .add(arena_wall / static_cast<double>(raw_stream.size()), 1)
      .add(cold_solve_speedup, 2);
  dbr::bench::emit(raw_table);
  std::cout << "raw cold-solve speedup (arena vs legacy): "
            << cold_solve_speedup << "x, bit-identical results: "
            << (raw_identical ? "yes" : "NO") << "\n";
  json.key("raw_speed")
      .begin_object()
      .field("family", raw_family.name)
      .field("queries", static_cast<std::uint64_t>(raw_stream.size()))
      .field("legacy_wall_micros", legacy_wall)
      .field("arena_wall_micros", arena_wall)
      .field("cold_solve_speedup", cold_solve_speedup)
      .field("identical_results", raw_identical)
      .end_object();

  // --- Session incremental updates vs stateless cold queries. ---
  dbr::bench::heading("fault churn: session incremental updates");
  const Family session_family = kFamilies[0];  // FFC node churn
  EmbedRequest churn_instance;
  churn_instance.base = session_family.base;
  churn_instance.n = session_family.n;
  churn_instance.fault_kind = session_family.kind;
  churn_instance.strategy = session_family.strategy;
  // The verify/ churn regime over this bench-sized instance: same seeded
  // event grammar the session/fuzz tests replay.
  const dbr::verify::ChurnScript churn = dbr::verify::make_churn_script(
      dbr::bench::seed(), churn_instance, events, /*max_live=*/4);

  EmbedEngine warm_engine;  // defaults: result cache + context reuse
  EmbedSession session(warm_engine, session_family.base, session_family.n,
                       session_family.kind, session_family.strategy);

  LatencyRecorder session_lat, stateless_lat;
  std::vector<Word> live;
  bool session_identical = true;
  double session_wall = 0.0, stateless_wall = 0.0;
  for (const dbr::verify::ChurnEvent& event : churn.events) {
    const bool add = event.add;
    const Word fault = event.fault;
    Clock::time_point start = Clock::now();
    if (add) {
      session.add_fault(fault);
    } else {
      session.clear_fault(fault);
    }
    const EmbedResponse& incremental = session.current_ring();
    const double session_micros = micros_since(start);
    session_wall += session_micros;
    session_lat.record(session_micros);

    if (add) {
      live.push_back(fault);
    } else {
      live.erase(std::find(live.begin(), live.end(), fault));
    }
    EmbedRequest req;
    req.base = session_family.base;
    req.n = session_family.n;
    req.fault_kind = session_family.kind;
    req.strategy = session_family.strategy;
    req.faults = live;
    start = Clock::now();
    // A fresh engine per event: no cached result, no cached context.
    const EmbedResponse stateless = EmbedEngine().query(req);
    const double stateless_micros = micros_since(start);
    stateless_wall += stateless_micros;
    stateless_lat.record(stateless_micros);

    if (!incremental.result || !stateless.result ||
        !incremental.result->same_embedding(*stateless.result)) {
      session_identical = false;
    }
  }
  identical = identical && session_identical;

  const double session_speedup =
      session_wall > 0.0 ? stateless_wall / session_wall : 0.0;
  const LatencySnapshot session_snap = session_lat.snapshot();
  const LatencySnapshot stateless_snap = stateless_lat.snapshot();
  dbr::TextTable session_table(
      {"mode", "events", "mean_us", "p50_us", "p99_us"});
  session_table.new_row()
      .add("session")
      .add(static_cast<std::uint64_t>(churn.events.size()))
      .add(session_snap.mean(), 1)
      .add(session_snap.percentile(50), 1)
      .add(session_snap.percentile(99), 1);
  session_table.new_row()
      .add("stateless_cold")
      .add(static_cast<std::uint64_t>(churn.events.size()))
      .add(stateless_snap.mean(), 1)
      .add(stateless_snap.percentile(50), 1)
      .add(stateless_snap.percentile(99), 1);
  dbr::bench::emit(session_table);
  std::cout << "session speedup vs stateless cold: " << session_speedup
            << "x (result-cache hits on revisited states: "
            << session.stats().result_cache_hits << ")\n";

  json.field("speedup_context_reuse", overall_speedup);
  json.key("session")
      .begin_object()
      .field("family", session_family.name)
      .field("events", static_cast<std::uint64_t>(churn.events.size()))
      .field("session_wall_micros", session_wall)
      .field("stateless_wall_micros", stateless_wall)
      .field("speedup", session_speedup)
      .field("session_mean_micros", session_snap.mean())
      .field("session_p50_micros", session_snap.percentile(50))
      .field("session_p99_micros", session_snap.percentile(99))
      .field("stateless_mean_micros", stateless_snap.mean())
      .field("stateless_p50_micros", stateless_snap.percentile(50))
      .field("stateless_p99_micros", stateless_snap.percentile(99))
      .field("result_cache_hits", session.stats().result_cache_hits)
      .field("solves", session.stats().solves)
      .field("identical_responses", session_identical)
      .end_object();

  // --- Incremental repair vs full recompute on single-fault deltas. ---
  dbr::bench::heading("fault churn: incremental repair vs full recompute");
  struct RepairFamily {
    const char* name;
    Digit base;
    unsigned n;
    FaultKind kind;
    Strategy strategy;
    std::uint64_t max_live;
  };
  // One family per repairable construction: FFC necklace splicing, the
  // psi-scan no-op path, and mixed pull-back detours.
  constexpr RepairFamily kRepairFamilies[] = {
      {"ffc_node_b2_n12", 2, 12, FaultKind::kNode, Strategy::kFfc, 4},
      {"edge_auto_b4_n6", 4, 6, FaultKind::kEdge, Strategy::kEdgeAuto, 2},
      {"mixed_b2_n10", 2, 10, FaultKind::kMixed, Strategy::kMixed, 3},
  };
  bool repair_verdicts_ok = true;
  std::uint64_t repair_violations = 0;
  double headline_speedup = 0.0;
  std::uint64_t headline_fell_back = 0;
  dbr::TextTable repair_table({"family", "events", "repair_p50_us",
                               "recompute_p50_us", "speedup_p50", "spliced",
                               "fell_back"});
  json.key("repair").begin_object();
  json.key("families").begin_array();
  for (const RepairFamily& family : kRepairFamilies) {
    EmbedRequest instance;
    instance.base = family.base;
    instance.n = family.n;
    instance.fault_kind = family.kind;
    instance.strategy = family.strategy;
    const dbr::verify::ChurnScript churn = dbr::verify::make_churn_script(
        dbr::bench::seed(), instance, repair_events, family.max_live);

    // Result caches off on both sides: every event pays its genuine serve
    // path (splice vs re-solve), not a cache replay of a revisited state.
    EngineOptions repair_opts;
    repair_opts.incremental_repair = true;
    repair_opts.enable_cache = false;
    EmbedEngine repair_engine(repair_opts);
    EmbedSession repair_session(repair_engine, family.base, family.n,
                                family.kind, family.strategy);
    EngineOptions recompute_opts;
    recompute_opts.enable_cache = false;
    EmbedEngine recompute_engine(recompute_opts);
    EmbedSession recompute_session(recompute_engine, family.base, family.n,
                                   family.kind, family.strategy);

    LatencyRecorder repair_lat, recompute_lat;
    std::uint64_t improved = 0;
    bool verdicts_ok = true;
    for (const dbr::verify::ChurnEvent& event : churn.events) {
      Clock::time_point start = Clock::now();
      if (event.add) {
        repair_session.add_fault(event.kind, event.fault);
      } else {
        repair_session.clear_fault(event.kind, event.fault);
      }
      const EmbedResponse repaired = repair_session.current_ring();
      repair_lat.record(micros_since(start));

      start = Clock::now();
      if (event.add) {
        recompute_session.add_fault(event.kind, event.fault);
      } else {
        recompute_session.clear_fault(event.kind, event.fault);
      }
      const EmbedResponse recomputed = recompute_session.current_ring();
      recompute_lat.record(micros_since(start));

      EmbedRequest request = instance;
      request.faults = repair_session.faults();
      request.edge_faults = repair_session.edge_faults();
      if (!repaired.result || !recomputed.result) {
        verdicts_ok = false;
        continue;
      }
      if (!dbr::verify::check_response(request, *repaired.result).ok() ||
          !dbr::verify::check_response(request, *recomputed.result).ok()) {
        ++repair_violations;
      }
      if (repaired.result->status == recomputed.result->status) {
        if (repaired.result->lower_bound != recomputed.result->lower_bound ||
            repaired.result->upper_bound != recomputed.result->upper_bound) {
          verdicts_ok = false;  // envelope divergence is a repair bug
        }
      } else if (repaired.result->status == dbr::service::EmbedStatus::kOk &&
                 recomputed.result->status ==
                     dbr::service::EmbedStatus::kNoEmbedding) {
        ++improved;  // a surviving spliced ring beats giving up
      } else {
        verdicts_ok = false;
      }
    }
    repair_verdicts_ok = repair_verdicts_ok && verdicts_ok;

    const auto& rstats = repair_session.repair_stats();
    const LatencySnapshot repair_snap = repair_lat.snapshot();
    const LatencySnapshot recompute_snap = recompute_lat.snapshot();
    const double speedup = repair_snap.percentile(50) > 0.0
                               ? recompute_snap.percentile(50) /
                                     repair_snap.percentile(50)
                               : 0.0;
    if (family.strategy == Strategy::kFfc) {
      headline_speedup = speedup;  // the primary churn family
      headline_fell_back = rstats.fell_back;
    }
    repair_table.new_row()
        .add(family.name)
        .add(static_cast<std::uint64_t>(churn.events.size()))
        .add(repair_snap.percentile(50), 1)
        .add(recompute_snap.percentile(50), 1)
        .add(speedup, 2)
        .add(rstats.spliced)
        .add(rstats.fell_back);
    json.begin_object()
        .field("family", family.name)
        .field("base", static_cast<std::uint64_t>(family.base))
        .field("n", family.n)
        .field("strategy", dbr::service::to_string(family.strategy))
        .field("events", static_cast<std::uint64_t>(churn.events.size()))
        .field("repair_p50_micros", repair_snap.percentile(50))
        .field("repair_p99_micros", repair_snap.percentile(99))
        .field("repair_mean_micros", repair_snap.mean())
        .field("recompute_p50_micros", recompute_snap.percentile(50))
        .field("recompute_p99_micros", recompute_snap.percentile(99))
        .field("recompute_mean_micros", recompute_snap.mean())
        .field("speedup_p50", speedup)
        .field("spliced", rstats.spliced)
        .field("fell_back", rstats.fell_back)
        .field("oracle_rejections", rstats.oracle_rejections)
        .field("improved_over_recompute", improved)
        .field("verdicts_identical", verdicts_ok)
        .end_object();
  }
  json.end_array();
  json.field("single_fault_median_speedup", headline_speedup)
      .field("headline_fell_back", headline_fell_back)
      .field("oracle_violations", repair_violations)
      .field("verdicts_identical", repair_verdicts_ok)
      .end_object();
  dbr::bench::emit(repair_table);
  std::cout << "repair speedup on single-fault deltas (ffc family, p50): "
            << headline_speedup << "x, oracle violations: "
            << repair_violations << ", verdicts identical: "
            << (repair_verdicts_ok ? "yes" : "NO") << "\n";

  json.field("identical_responses", identical);
  json.end_object();

  if (!json.write_file(out_path)) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return (identical && repair_verdicts_ok && repair_violations == 0) ? 0 : 1;
}
