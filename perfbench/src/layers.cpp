#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>

#include "butterfly/lift.hpp"
#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/mixed_fault.hpp"
#include "core/solve_scratch.hpp"
#include "loadgen.hpp"
#include "net/wire.hpp"
#include "nt/numtheory.hpp"
#include "service/context_cache.hpp"
#include "service/engine.hpp"
#include "service/session.hpp"
#include "stats.hpp"

namespace perfbench {

using dbr::service::CacheKey;
using dbr::service::EmbedEngine;
using dbr::service::EmbedResponse;
using dbr::service::FaultKind;
using dbr::service::Strategy;

std::uint64_t instance_key(dbr::Digit base, unsigned n) {
  return (static_cast<std::uint64_t>(base) << 32) | n;
}

std::uint64_t solve_key(dbr::Digit base, unsigned n, Strategy strategy) {
  return (instance_key(base, n) << 4) | static_cast<std::uint64_t>(strategy);
}

namespace {

// Probe lanes (Chrome trace thread ids of pid 2).
enum Lane : std::uint32_t {
  kLaneService = 10,
  kLaneContext = 20,
  kLaneSolve = 30,
  kLaneCodec = 40,
  kLaneSession = 50,
};

double us(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1000.0; }

struct Uses {
  bool node = false;
  bool edge = false;
  bool butterfly = false;
};

// The requests the single-threaded probes replay: the distinct stateless
// requests in send order, or session fault states sampled along each script.
std::vector<EmbedRequest> probe_sample(const LayerInputs& in, std::size_t cap) {
  std::vector<EmbedRequest> out;
  if (!in.sessions.empty()) {
    for (const SessionPlan& plan : in.sessions) {
      std::vector<dbr::Word> nodes, edges;
      for (std::size_t i = 0; i < plan.script.events.size() && out.size() < cap; ++i) {
        const auto& ev = plan.script.events[i];
        auto& live = ev.kind == FaultKind::kEdge ? edges : nodes;
        const auto at = std::lower_bound(live.begin(), live.end(), ev.fault);
        if (ev.add) live.insert(at, ev.fault);
        else if (at != live.end() && *at == ev.fault) live.erase(at);
        if (i % 25 == 0) out.push_back(session_request(plan.base, nodes, edges));
        if (i > 25 * cap / in.sessions.size()) break;
      }
    }
    return out;
  }
  std::unordered_set<std::string> seen;
  for (const EmbedRequest& r : in.stream) {
    if (out.size() >= cap) break;
    std::vector<std::uint8_t> bytes;
    dbr::net::encode_request(bytes, r, false);
    if (seen.emplace(bytes.begin(), bytes.end()).second) out.push_back(r);
  }
  return out;
}

}  // namespace

LayerEstimates run_layer_probes(const LayerInputs& in, Report& report, Tracer& tracer,
                                double* inproc_qps) {
  LayerEstimates est;
  const Workload& wl = *in.workload;
  const auto budget_ns = static_cast<std::int64_t>(in.budget_seconds * 1e9);
  // Each probe family gets its own slice of the budget.
  const auto slice_end = [&](double share) {
    return now_ns() + static_cast<std::int64_t>(static_cast<double>(budget_ns) * share);
  };
  const auto span = [&](const char* name, const char* layer, std::int64_t t0, std::int64_t t1,
                        std::uint32_t lane) { tracer.add({name, layer, t0, t1, -1, 2, lane, 0}); };
  const std::vector<EmbedRequest> sample = probe_sample(in, 400);

  // --- service.inproc_qps: K threads pulling from one shared atomic index
  // into EmbedEngine::query (sessions: one EmbedSession per thread).
  {
    const std::int64_t stop_at = slice_end(0.25);
    std::atomic<std::uint64_t> done{0};
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    if (in.sessions.empty()) {
      EmbedEngine engine;
      for (const EmbedRequest& r : in.warmup) engine.query(r);
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      t0 = now_ns();
      for (std::size_t t = 0; t < in.threads; ++t) {
        pool.emplace_back([&] {
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= in.stream.size() || now_ns() >= stop_at) return;
            engine.query(in.stream[i]);
            done.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& th : pool) th.join();
      t1 = now_ns();
    } else {
      dbr::service::EngineOptions opts;
      opts.incremental_repair = true;
      EmbedEngine engine(opts);
      std::vector<std::thread> pool;
      t0 = now_ns();
      for (std::size_t t = 0; t < in.threads; ++t) {
        pool.emplace_back([&, t] {
          const SessionPlan& plan = in.sessions[t % in.sessions.size()];
          dbr::service::EmbedSession s(engine, plan.base.base, plan.base.n,
                                       plan.base.fault_kind, plan.base.strategy);
          s.current_ring();
          for (const auto& ev : plan.script.events) {
            if (now_ns() >= stop_at) return;
            if (ev.add) s.add_fault(ev.kind, ev.fault);
            else s.clear_fault(ev.kind, ev.fault);
            s.current_ring();
            done.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& th : pool) th.join();
      t1 = now_ns();
    }
    *inproc_qps = t1 > t0 ? static_cast<double>(done.load()) * 1e9 / static_cast<double>(t1 - t0) : 0.0;
    span("service.inproc_qps", "service", t0, t1, kLaneService);
    report.metric("service.inproc_qps", "1/s", *inproc_qps);
  }

  // --- core.context: first-use time of each InstanceContext section on a
  // fresh context per distinct instance the workload touches.
  std::map<std::uint64_t, std::shared_ptr<const dbr::core::InstanceContext>> contexts;
  {
    std::map<std::uint64_t, Uses> uses;
    std::vector<std::uint64_t> order;
    const auto note = [&](const EmbedRequest& r) {
      const std::uint64_t key = instance_key(r.base, r.n);
      if (!uses.count(key)) order.push_back(key);
      Uses& u = uses[key];
      const Strategy s = dbr::service::resolve_strategy(r);
      u.node |= s == Strategy::kFfc || s == Strategy::kMixed;
      u.edge |= s == Strategy::kEdgeAuto || s == Strategy::kButterfly || s == Strategy::kMixed;
      u.butterfly |= s == Strategy::kButterfly;
    };
    for (const EmbedRequest& r : in.warmup) note(r);
    for (const EmbedRequest& r : sample) note(r);
    double necklaces = 0, label_merge = 0, psi = 0, phi = 0, bfly = 0;
    const std::int64_t stop_at = slice_end(0.3);
    for (const std::uint64_t key : order) {
      if (now_ns() >= stop_at) break;
      const auto base = static_cast<dbr::Digit>(key >> 32);
      const auto n = static_cast<unsigned>(key & 0xffffffffu);
      const Uses& u = uses[key];
      std::int64_t t0 = now_ns();
      auto ctx = dbr::core::InstanceContext::make(base, n);
      double total = us(t0, now_ns());
      const auto timed = [&](const char* name, double* sum, auto&& fn) {
        const std::int64_t a = now_ns();
        fn();
        const std::int64_t b = now_ns();
        span(name, "core", a, b, kLaneContext);
        *sum += us(a, b) / 1000.0;
        total += us(a, b);
      };
      if (u.node) {
        timed("core.context.necklaces", &necklaces, [&] { ctx->necklaces(); });
        timed("core.context.label_merge", &label_merge, [&] { ctx->label_merge(); });
      }
      if (u.edge && ctx->supports_edge_faults()) {
        timed("core.context.psi", &psi, [&] { ctx->psi_family(); });
        timed("core.context.phi", &phi, [&] {
          ctx->maximal_family(dbr::nt::factor(base).front().value());
        });
      }
      if (u.butterfly && ctx->supports_butterfly())
        timed("core.context.butterfly", &bfly, [&] { ctx->butterfly(); });
      est.build_us[key] = total;
      contexts[key] = std::move(ctx);
    }
    report.metric("core.context.necklaces_ms", "ms", necklaces);
    report.metric("core.context.label_merge_ms", "ms", label_merge);
    report.metric("core.context.psi_ms", "ms", psi);
    report.metric("core.context.phi_ms", "ms", phi);
    report.metric("core.context.butterfly_ms", "ms", bfly);
  }

  // --- core.solve: arena solves against the contexts above, one reused
  // SolveScratch, per strategy family.
  {
    dbr::core::SolveScratch scratch;
    std::map<Strategy, std::vector<double>> by_kind;
    std::map<std::uint64_t, std::vector<double>> by_key;
    const std::int64_t stop_at = slice_end(0.2);
    for (const EmbedRequest& r : sample) {
      if (now_ns() >= stop_at) break;
      const auto it = contexts.find(instance_key(r.base, r.n));
      if (it == contexts.end()) continue;
      const dbr::core::InstanceContext& ctx = *it->second;
      const CacheKey key = dbr::service::canonical_key(r);
      const std::int64_t t0 = now_ns();
      switch (key.strategy) {
        case Strategy::kFfc:
          dbr::core::solve_ffc(ctx, key.faults, scratch);
          break;
        case Strategy::kEdgeAuto:
          dbr::core::solve_edge_auto(ctx, key.faults);
          break;
        case Strategy::kButterfly: {
          const auto hc = dbr::core::solve_edge_auto(ctx, key.faults);
          if (hc) dbr::butterfly::lift_cycle(ctx.butterfly(), dbr::to_node_cycle(ctx.words(), *hc));
          break;
        }
        case Strategy::kMixed:
          dbr::core::solve_mixed(ctx, key.faults, key.edge_faults, scratch);
          break;
        default:
          continue;
      }
      const std::int64_t t1 = now_ns();
      const char* name = key.strategy == Strategy::kFfc         ? "core.solve.ffc"
                         : key.strategy == Strategy::kEdgeAuto  ? "core.solve.edge"
                         : key.strategy == Strategy::kButterfly ? "core.solve.butterfly"
                                                                : "core.solve.mixed";
      span(name, "core", t0, t1, kLaneSolve);
      by_kind[key.strategy].push_back(us(t0, t1));
      by_key[solve_key(r.base, r.n, key.strategy)].push_back(us(t0, t1));
    }
    for (const auto& [k, v] : by_key) est.solve_us[k] = median(v);
    const std::pair<const char*, Strategy> kinds[] = {{"core.solve.ffc_us", Strategy::kFfc},
                                                      {"core.solve.edge_us", Strategy::kEdgeAuto},
                                                      {"core.solve.butterfly_us", Strategy::kButterfly},
                                                      {"core.solve.mixed_us", Strategy::kMixed}};
    for (const auto& [name, s] : kinds) {
      const std::vector<double>& v = by_kind[s];
      report.metric(std::string(name) + ".p50", "us", percentile(v, 50.0));
      report.metric(std::string(name) + ".p99", "us", percentile(v, 99.0));
      report.timing(name, v);
    }
  }

  // --- service.engine (hit / miss with resident contexts) and net codec.
  {
    EmbedEngine engine;
    for (const EmbedRequest& r : in.warmup) engine.query(r);
    for (const EmbedRequest& r : sample) engine.query(r);  // builds every context + section
    engine.clear_cache();                                  // keeps the contexts
    std::vector<double> hit, miss, enc_req, dec_req, enc_emb, dec_emb;
    std::vector<EmbedResponse> responses;
    const std::int64_t stop_at = slice_end(0.15);
    for (const EmbedRequest& r : sample) {
      if (now_ns() >= stop_at) break;
      std::int64_t t0 = now_ns();
      EmbedResponse m = engine.query(r);
      std::int64_t t1 = now_ns();
      if (!m.cache_hit) miss.push_back(us(t0, t1));
      span("service.engine.query(miss)", "service", t0, t1, kLaneService);
      t0 = now_ns();
      EmbedResponse h = engine.query(r);
      t1 = now_ns();
      if (h.cache_hit) hit.push_back(us(t0, t1));
      span("service.engine.query(hit)", "service", t0, t1, kLaneService);
      responses.push_back(std::move(h));
    }
    // The codec calls take well under a microsecond on small payloads, so
    // each sample times a batch of 16 and divides.
    constexpr int kReps = 16;
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const EmbedRequest& r = sample[i];
      std::int64_t t0 = now_ns();
      for (int k = 0; k < kReps; ++k) {
        buf.clear();
        dbr::net::encode_request(buf, r, wl.want_ring);
      }
      std::int64_t t1 = now_ns();
      enc_req.push_back(us(t0, t1) / kReps);
      span("net.encode_request", "net", t0, t1, kLaneCodec);
      EmbedRequest back;
      bool want = false;
      t0 = now_ns();
      for (int k = 0; k < kReps; ++k) dbr::net::decode_request(buf, &back, &want);
      t1 = now_ns();
      dec_req.push_back(us(t0, t1) / kReps);
      span("net.decode_request", "net", t0, t1, kLaneCodec);
      t0 = now_ns();
      for (int k = 0; k < kReps; ++k) {
        buf.clear();
        dbr::net::WireWriter w(buf);
        dbr::net::encode_embed(w, responses[i], wl.want_ring);
      }
      t1 = now_ns();
      enc_emb.push_back(us(t0, t1) / kReps);
      span("net.encode_embed", "net", t0, t1, kLaneCodec);
      dbr::net::WireEmbed decoded;
      t0 = now_ns();
      for (int k = 0; k < kReps; ++k) {
        dbr::net::WireReader rd(buf);
        dbr::net::decode_embed(rd, &decoded);
      }
      t1 = now_ns();
      dec_emb.push_back(us(t0, t1) / kReps);
      span("net.decode_embed", "net", t0, t1, kLaneCodec);
    }
    report.metric("service.engine.hit_us.p50", "us", percentile(hit, 50.0));
    report.metric("service.engine.miss_us.p50", "us", percentile(miss, 50.0));
    report.metric("net.encode_request_us", "us", percentile(enc_req, 50.0));
    report.metric("net.decode_request_us", "us", percentile(dec_req, 50.0));
    report.metric("net.encode_embed_us", "us", percentile(enc_emb, 50.0));
    report.metric("net.decode_embed_us", "us", percentile(dec_emb, 50.0));
    report.timing("service.engine.hit", hit);
    report.timing("service.engine.miss", miss);
  }

  // --- service.context.get_or_build over the workload's instance sequence
  // on a fresh cache of the default capacity.
  {
    dbr::service::ContextCache cache;
    std::vector<double> get;
    const std::vector<EmbedRequest>& seq = in.sessions.empty() ? in.stream : sample;
    const std::int64_t stop_at = slice_end(0.1);
    for (std::size_t i = 0; i < seq.size() && i < 20000; ++i) {
      if (now_ns() >= stop_at) break;
      const std::int64_t t0 = now_ns();
      cache.get_or_build(seq[i].base, seq[i].n);
      const std::int64_t t1 = now_ns();
      get.push_back(us(t0, t1));
      if (i % 64 == 0) span("service.context.get_or_build", "service", t0, t1, kLaneService);
    }
    report.metric("service.context.get_us.p50", "us", percentile(get, 50.0));
    report.metric("service.context.get_us.p99", "us", percentile(get, 99.0));
    report.timing("service.context.get", get);
  }

  // --- service.session: the churn scripts replayed in process with
  // incremental repair (session_churn only; other workloads have no
  // sessions and report 0).
  {
    std::vector<double> mutate, resolve, splice;
    double memoized = 0, calls = 0, spliced = 0, fell_back = 0;
    if (!in.sessions.empty()) {
      dbr::service::EngineOptions opts;
      opts.incremental_repair = true;
      EmbedEngine engine(opts);
      const std::int64_t stop_at = slice_end(0.2);
      const std::size_t per = 4000 / in.sessions.size();
      for (const SessionPlan& plan : in.sessions) {
        dbr::service::EmbedSession s(engine, plan.base.base, plan.base.n, plan.base.fault_kind,
                                     plan.base.strategy);
        s.current_ring();
        for (std::size_t i = 0; i < plan.script.events.size() && i < per; ++i) {
          if (now_ns() >= stop_at) break;
          const auto& ev = plan.script.events[i];
          std::int64_t t0 = now_ns();
          if (ev.add) s.add_fault(ev.kind, ev.fault);
          else s.clear_fault(ev.kind, ev.fault);
          std::int64_t t1 = now_ns();
          mutate.push_back(us(t0, t1));
          span("service.session.mutate", "service", t0, t1, kLaneSession);
          t0 = now_ns();
          const EmbedResponse resp = s.current_ring();
          t1 = now_ns();
          resolve.push_back(us(t0, t1));
          if (resp.repaired) splice.push_back(us(t0, t1));
          span(resp.repaired ? "service.session.resolve(splice)" : "service.session.resolve",
               "service", t0, t1, kLaneSession);
        }
        memoized += static_cast<double>(s.stats().memoized);
        calls += static_cast<double>(s.stats().memoized + s.stats().solves);
        spliced += static_cast<double>(s.repair_stats().spliced);
        fell_back += static_cast<double>(s.repair_stats().fell_back);
      }
    }
    est.repair_us = percentile(splice, 50.0);
    report.metric("service.session.mutate_us.p50", "us", percentile(mutate, 50.0));
    report.metric("service.session.splice_us.p50", "us", percentile(splice, 50.0));
    report.metric("service.session.resolve_us.p50", "us", percentile(resolve, 50.0));
    report.metric("service.session.memoized_ratio", "ratio", calls > 0 ? memoized / calls : 0.0);
    report.metric("service.repair.splice_ratio", "ratio",
                  spliced + fell_back > 0 ? spliced / (spliced + fell_back) : 0.0);
    report.timing("service.session.mutate", mutate);
    report.timing("service.session.resolve", resolve);
    report.timing("service.session.splice", splice);
  }
  return est;
}

}  // namespace perfbench
