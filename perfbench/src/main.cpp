// perfbench runner: runs one workload against a real embed_server process
// over loopback and prints its metrics. Normally started by run.py, which
// builds it; usable alone:
//
//   perfbench_runner --workload hot_verdict --seed 1 --seconds 10 --trace 0
//       --server .bench_build/perfbench/repo/embed_server
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes a Chrome trace-event file next to the result file.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "feeds.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "report.hpp"
#include "server_proc.hpp"
#include "service/engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify/oracle.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using dbr::service::EmbedRequest;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string server;
  std::string out_dir = ".bench_results";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

int usage() {
  std::cerr << "usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1 "
               "--server PATH [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]\n"
               "workloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 64;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Accumulates attempted/failed over the phases error_ratio covers.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t wrong_answers = 0;

  void add(const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    overloaded += p.overloaded;
    timeouts += p.timeouts;
    protocol_errors += p.protocol_errors;
    wrong_answers += p.wrong_answers;
  }
  double error_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// Open-loop honesty: the generator must keep its schedule and the backlog
// must not grow, or the phase measures the generator, not the server.
struct Honesty {
  double late_p99_us = 0.0;
  std::int64_t backlog_growth = 0;
  bool valid = true;
};

Honesty judge_open(const PhaseResult& p, std::size_t conns, double limit_us) {
  Honesty h;
  h.late_p99_us = percentile(p.late_us, 99.0);
  h.backlog_growth = p.backlog_end - p.backlog_mid;
  const double allowed = std::max(4.0 * static_cast<double>(conns),
                                  p.offered_rate * limit_us / 1e6);
  h.valid = h.late_p99_us <= limit_us / 2.0 &&
            static_cast<double>(h.backlog_growth) <= allowed;
  return h;
}

std::string phase_json(const PhaseResult& p, const Honesty* h) {
  std::ostringstream o;
  const Summary lat = summarize(p.latency_us);
  o << "{\"seconds\": " << json_num(p.seconds) << ", \"offered_rate\": " << json_num(p.offered_rate)
    << ", \"attempted\": " << p.attempted << ", \"ok\": " << p.ok << ", \"failed\": " << p.failed
    << ", \"overloaded\": " << p.overloaded << ", \"timeouts\": " << p.timeouts
    << ", \"protocol_errors\": " << p.protocol_errors << ", \"bad_status\": " << p.bad_status
    << ", \"wrong_answers\": " << p.wrong_answers << ", \"ok_rate\": " << json_num(p.ok_rate())
    << ", \"latency_n\": " << lat.n << ", \"latency_p50_us\": " << json_num(lat.p50)
    << ", \"latency_p99_us\": " << json_num(lat.p99)
    << ", \"latency_top_pct\": " << json_num(lat.top_pct)
    << ", \"latency_top_us\": " << json_num(lat.top_value)
    << ", \"backlog_mid\": " << p.backlog_mid << ", \"backlog_end\": " << p.backlog_end;
  if (h != nullptr)
    o << ", \"gen_late_p99_us\": " << json_num(h->late_p99_us)
      << ", \"gen_backlog_growth\": " << h->backlog_growth
      << ", \"valid\": " << (h->valid ? "true" : "false");
  o << "}";
  return o.str();
}

// Appends phase `p` to the running total `into`: the counts and samples
// phase_json and Tally read.
void merge(PhaseResult& into, const PhaseResult& p) {
  into.seconds += p.seconds;
  into.offered_rate = p.offered_rate;
  into.attempted += p.attempted;
  into.ok += p.ok;
  into.failed += p.failed;
  into.overloaded += p.overloaded;
  into.timeouts += p.timeouts;
  into.protocol_errors += p.protocol_errors;
  into.bad_status += p.bad_status;
  into.wrong_answers += p.wrong_answers;
  into.latency_us.insert(into.latency_us.end(), p.latency_us.begin(), p.latency_us.end());
  into.late_us.insert(into.late_us.end(), p.late_us.begin(), p.late_us.end());
  into.backlog_mid = std::max(into.backlog_mid, p.backlog_mid);
  into.backlog_end = std::max(into.backlog_end, p.backlog_end);
}

// Rung k of the fixed capacity ladder: base * 2^(k/12).
double rung_rate(const Workload& w, int k) { return w.ladder_base * std::pow(2.0, k / 12.0); }

struct Capacity {
  double qps = 0.0;
  int rung = -1;
  std::string log = "[]";
};

// Highest ladder rung whose open-loop probe meets the latency limit with no
// growing backlog and errors under the limit. The search starts near the
// closed-loop throughput, gallops by four rungs, then bisects; capacity is
// the completion rate measured inside the winning probe's window.
Capacity find_capacity(LoadGen& lg, Feed& feed, const Workload& w, double hint,
                       double budget_s) {
  const double probe_s = std::clamp(budget_s / 6.0, 0.25, 1.5);
  int probes_left = std::max(3, static_cast<int>(budget_s / probe_s));
  std::vector<std::string> log;
  std::map<int, double> passed;  // rung -> measured completion rate
  auto probe = [&](int k) {
    --probes_left;
    LoadGen::Options o;
    o.seconds = probe_s;
    o.rate = rung_rate(w, k);
    o.drain_seconds = 5.0;
    const PhaseResult p = lg.run(feed, o);
    // Judged on medians over the probe's windows, so one stall cannot fail
    // a rung: p99 under the limit, errors under theirs, and completions
    // keeping up with the schedule (a growing backlog completes less than
    // it is offered). Generator lateness is inside the latency from due.
    const double p99 = windowed_percentile(p.latency_us, p.due_s, p.seconds, 4, 99.0);
    const double measured = median(p.slice_rates) > 0 ? median(p.slice_rates) : p.ok_rate();
    const bool ok = p.ok > 0 && p99 <= w.p99_limit_us && p.error_ratio() <= 0.001 &&
                    measured >= 0.95 * o.rate;
    std::ostringstream e;
    e << "{\"rung\": " << k << ", \"rate\": " << json_num(o.rate) << ", \"pass\": "
      << (ok ? "true" : "false") << ", \"p99_us\": " << json_num(p99)
      << ", \"error_ratio\": " << json_num(p.error_ratio())
      << ", \"measured_rate\": " << json_num(measured) << "}";
    log.push_back(e.str());
    if (ok) passed[k] = measured;
    return ok;
  };
  const int start = std::max(0, static_cast<int>(std::floor(12.0 * std::log2(0.9 * hint / w.ladder_base))));
  int lo = -1;
  int hi = -1;
  if (probe(start)) {
    lo = start;
    for (int k = start + 4; probes_left > 0; k += 4) {
      if (probe(k)) {
        lo = k;
      } else {
        hi = k;
        break;
      }
    }
  } else {
    hi = start;
    for (int k = start - 4; probes_left > 0 && hi > 0; k -= 4) {
      k = std::max(k, 0);
      if (probe(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  while (lo >= 0 && hi > lo + 1 && probes_left > 0) {
    const int m = (lo + hi) / 2;
    if (probe(m)) lo = m;
    else hi = m;
  }
  Capacity c;
  if (lo >= 0) {
    c.qps = passed[lo];
    c.rung = lo;
  }
  std::string joined = "[";
  for (std::size_t i = 0; i < log.size(); ++i) joined += (i ? ", " : "") + log[i];
  c.log = joined + "]";
  return c;
}

bool same_embedding(const dbr::net::WireEmbed& wire, const dbr::service::EmbedResult& local) {
  return wire.status == local.status && wire.strategy_used == local.strategy_used &&
         wire.ring == local.ring.nodes && wire.ring_length == local.ring_length &&
         wire.lower_bound == local.lower_bound && wire.upper_bound == local.upper_bound &&
         wire.error == local.error;
}

struct Correctness {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  std::uint64_t violations = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unanswered = 0;
  std::vector<double> oracle_us;
  std::vector<std::string> findings;  ///< first few, for the result file
};

void oracle_check(const EmbedRequest& req, const dbr::net::WireEmbed& e, Correctness& c,
                  bool* bad, Tracer* tracer) {
  const dbr::service::EmbedResult result = to_result(e);
  const std::int64_t t0 = now_ns();
  const dbr::verify::OracleReport rep = dbr::verify::check_response(req, result);
  const std::int64_t t1 = now_ns();
  c.oracle_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
  if (tracer != nullptr) tracer->add({"verify.check_response", "verify", t0, t1, -1, 2, 90, 0});
  ++c.checked;
  if (!rep.ok()) {
    ++c.violations;
    *bad = true;
    if (c.findings.size() < 5) c.findings.push_back("oracle: " + rep.to_string());
  }
}

// Re-sends a seeded sample of the distinct stateless requests with the ring
// requested, oracle-checks every answer, and holds it bit-identical to an
// in-process EmbedEngine::query of the same request.
Correctness stateless_correctness(LoadGen& lg, const RequestStream& stream, std::size_t cap,
                                  std::uint64_t seed, Tracer* tracer) {
  Correctness c;
  std::vector<std::size_t> order(stream.distinct().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  dbr::Rng rng(seed ^ 0x5eed5eedull);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  order.resize(std::min(order.size(), cap));
  std::vector<EmbedRequest> requests;
  for (const std::size_t i : order) requests.push_back(stream.distinct()[i]);

  ResendFeed feed(requests);
  LoadGen::Options o;
  o.max_units = requests.size();
  lg.run(feed, o);
  c.attempted = requests.size();

  dbr::service::EmbedEngine local;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    bool bad = false;
    if (!feed.answered()[i]) {
      ++c.unanswered;
      bad = true;
    } else {
      const dbr::net::WireEmbed& e = feed.replies()[i];
      oracle_check(requests[i], e, c, &bad, tracer);
      const dbr::service::EmbedResponse mine = local.query(requests[i]);
      if (!mine.result || !same_embedding(e, *mine.result)) {
        ++c.mismatches;
        bad = true;
        if (c.findings.size() < 5) c.findings.push_back("wire answer differs from in-process query");
      }
    }
    if (bad) ++c.failed;
  }
  return c;
}

Correctness session_correctness(const SessionFeed& feed, Tracer* tracer) {
  Correctness c;
  for (const SessionSample& s : feed.samples()) {
    bool bad = false;
    ++c.attempted;
    oracle_check(s.request, s.embed, c, &bad, tracer);
    if (bad) ++c.failed;
  }
  return c;
}

std::string correctness_json(const Correctness& c) {
  std::ostringstream o;
  o << "{\"attempted\": " << c.attempted << ", \"failed\": " << c.failed
    << ", \"oracle_checked\": " << c.checked << ", \"oracle_violations\": " << c.violations
    << ", \"bit_identity_mismatches\": " << c.mismatches << ", \"unanswered\": " << c.unanswered
    << ", \"findings\": [";
  for (std::size_t i = 0; i < c.findings.size(); ++i)
    o << (i ? ", " : "") << json_str(c.findings[i]);
  o << "]}";
  return o.str();
}

struct Rig {
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<StatelessFeed> stateless;
  std::unique_ptr<SessionFeed> sessions;
  Feed* feed = nullptr;

  void begin_warmup() {
    if (stateless) stateless->begin_warmup();
    if (sessions) sessions->begin_warmup();
  }
  void end_warmup() {
    if (stateless) stateless->end_warmup();
    if (sessions) sessions->end_warmup();
  }
  std::uint64_t warmup_units(std::size_t conns) const {
    return stateless ? stream->warmup().size() : conns;
  }
};

int run(const Args& args) {
  const std::optional<Workload> found = find_workload(args.workload);
  if (!found) return usage();
  const Workload& wl = *found;
  const std::size_t conns = static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const double S = args.seconds;
  const bool traced = args.trace != 0;

  Rig rig;
  if (wl.shape == Shape::kSessionChurn) {
    rig.sessions = std::make_unique<SessionFeed>(make_sessions(args.seed, conns, 60000));
    rig.feed = rig.sessions.get();
  } else {
    rig.stream = std::make_unique<RequestStream>(wl, args.seed);
    rig.stateless = std::make_unique<StatelessFeed>(*rig.stream, wl.want_ring);
    rig.feed = rig.stateless.get();
  }
  std::vector<std::string> server_args = {"--workers", std::to_string(conns)};
  server_args.insert(server_args.end(), wl.server_flags.begin(), wl.server_flags.end());

  // Set-up: exec until listening plus the warmup pass, repeated for a median.
  Report report;
  Tally tally;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadGen> lg;
  const int reps = traced ? 1 : 9;
  for (int rep = 0; rep < reps; ++rep) {
    lg.reset();
    if (server) server->stop();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(args.server, server_args);
    lg = std::make_unique<LoadGen>(server->port(), conns);
    rig.begin_warmup();
    LoadGen::Options o;
    o.max_units = rig.warmup_units(conns);
    const PhaseResult warm = lg->run(*rig.feed, o);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    rig.end_warmup();
    tally.add(warm);
  }

  Tracer tracer;
  const std::int64_t origin = now_ns();
  std::ostringstream phases;
  double throughput = 0.0;
  double inproc_qps = 0.0;
  Correctness corr;
  PhaseResult traced_closed;
  PhaseResult plain_closed;

  if (!traced) {
    // The closed loop and both open-loop rates run interleaved in rounds;
    // each metric is the median over its rounds, so a burst of interference
    // moves one round of every metric instead of all of one metric.
    constexpr int kRounds = 4;
    PhaseResult c, r50, r80;
    std::vector<double> slice_rates, cpu_per_req, lat50_r50, lat99_r50, lat50_r80, lat99_r80;
    Honesty h50, h80;
    for (int round = 0; round < kRounds; ++round) {
      LoadGen::Options closed;
      closed.seconds = 0.3 * S / kRounds;
      const double cpu0 = server->cpu_seconds();
      const PhaseResult cr = lg->run(*rig.feed, closed);
      const double cpu1 = server->cpu_seconds();
      slice_rates.insert(slice_rates.end(), cr.slice_rates.begin(), cr.slice_rates.end());
      if (cr.ok) cpu_per_req.push_back((cpu1 - cpu0) * 1e6 / static_cast<double>(cr.ok));
      merge(c, cr);

      LoadGen::Options open;
      open.seconds = 0.2 * S / kRounds;
      for (const bool high : {false, true}) {
        open.rate = high ? wl.r80 : wl.r50;
        const PhaseResult o = lg->run(*rig.feed, open);
        const Honesty h = judge_open(o, conns, wl.p99_limit_us);
        Honesty& worst = high ? h80 : h50;
        worst.late_p99_us = std::max(worst.late_p99_us, h.late_p99_us);
        worst.backlog_growth = std::max(worst.backlog_growth, h.backlog_growth);
        worst.valid = worst.valid && h.valid;
        // Two windows per round: eight latency figures per rate in all.
        (high ? lat50_r80 : lat50_r50).push_back(windowed_percentile(o.latency_us, o.due_s, o.seconds, 2, 50.0));
        (high ? lat99_r80 : lat99_r50).push_back(windowed_percentile(o.latency_us, o.due_s, o.seconds, 2, 99.0));
        merge(high ? r80 : r50, o);
      }
    }
    tally.add(c);
    tally.add(r50);
    tally.add(r80);
    throughput = slice_rates.empty() ? c.ok_rate() : median(slice_rates);
    // Read before the capacity search, whose overload probes pile replies
    // up in the server's write buffers.
    const double rss = server->peak_rss_mb();

    const Capacity cap = find_capacity(*lg, *rig.feed, wl, throughput, 0.3 * S);

    corr = rig.stream ? stateless_correctness(*lg, *rig.stream, wl.shape == Shape::kInstanceSweep ? 64 : 256,
                                              args.seed, nullptr)
                      : session_correctness(*rig.sessions, nullptr);
    lg.reset();
    const bool clean_exit = server->stop();
    if (!clean_exit) corr.findings.push_back("embed_server did not drain cleanly");

    report.metric("throughput_qps", "1/s", throughput);
    report.metric("lat_p50_us.r50", "us", median(lat50_r50));
    report.metric("setup_s", "s", median(setups));
    report.metric("peak_rss_mb", "MB", rss);
    report.metric("cpu_us_per_req", "us", median(cpu_per_req));
    // On a shared 4-core host these swing by more than any allowed bound
    // between runs of one seed (README.md, "Bounded and unbounded").
    report.detail("capacity_qps", "1/s", cap.qps);
    report.detail("lat_p99_us.r50", "us", median(lat99_r50));
    report.detail("lat_p50_us.r80", "us", median(lat50_r80));
    report.detail("lat_p99_us.r80", "us", median(lat99_r80));
    report.timing("closed.latency", c.latency_us);
    report.timing("open_r50.latency", r50.latency_us);
    report.timing("open_r80.latency", r80.latency_us);
    report.timing("open_r50.gen_late", r50.late_us);
    report.timing("open_r80.gen_late", r80.late_us);
    phases << "{\"closed\": " << phase_json(c, nullptr) << ", \"open_r50\": " << phase_json(r50, &h50)
           << ", \"open_r80\": " << phase_json(r80, &h80) << ", \"capacity_probes\": " << cap.log
           << "}";
    if (!h50.valid || !h80.valid)
      std::cerr << "perfbench: WARNING open-loop phase invalid (generator late or backlog "
                   "growing); this run must not enter a comparison\n";
    report.section("open_loop_valid", (h50.valid && h80.valid && cap.rung >= 0) ? "true" : "false");
    std::ostringstream setup_json;
    setup_json << "[";
    for (std::size_t i = 0; i < setups.size(); ++i) setup_json << (i ? ", " : "") << json_num(setups[i]);
    setup_json << "]";
    report.section("setup_s_samples", setup_json.str());
  } else {
    LoadGen::Options closed;
    closed.seconds = 0.15 * S;
    plain_closed = lg->run(*rig.feed, closed);
    tally.add(plain_closed);
    closed.record_units = true;
    traced_closed = lg->run(*rig.feed, closed);
    tally.add(traced_closed);
    LoadGen::Options open;
    open.seconds = 0.15 * S;
    open.rate = wl.r50;
    const PhaseResult r50 = lg->run(*rig.feed, open);
    tally.add(r50);
    const Honesty h50 = judge_open(r50, conns, wl.p99_limit_us);
    throughput = traced_closed.slice_rates.empty() ? traced_closed.ok_rate()
                                                   : median(traced_closed.slice_rates);
    corr = rig.stream ? stateless_correctness(*lg, *rig.stream, wl.shape == Shape::kInstanceSweep ? 64 : 256,
                                              args.seed, &tracer)
                      : session_correctness(*rig.sessions, &tracer);
    lg.reset();
    if (!server->stop()) corr.findings.push_back("embed_server did not drain cleanly");

    // In-process probes run with the server gone, so they own the cores.
    LayerInputs in;
    in.workload = &wl;
    in.threads = conns;
    in.budget_seconds = 0.35 * S;
    if (rig.stream) {
      in.warmup = rig.stream->warmup();
      // The requests of the traced closed loop, in send order.
      for (const UnitRecord& u : traced_closed.units)
        in.stream.push_back(rig.stream->distinct()[u.tag]);
    } else {
      in.sessions = rig.sessions->plans();
    }
    const LayerEstimates est = run_layer_probes(in, report, tracer, &inproc_qps);

    // Wire spans of the traced closed loop: the client round trip (net),
    // the server-reported serve interval inside it (service), and inside
    // that the core work the in-process probes timed for the same instance
    // (context build on a context miss, arena solve on a result miss).
    std::vector<double> rtt, tax;
    std::uint64_t req_id = 0;
    for (const UnitRecord& u : traced_closed.units) {
      if (!u.ok) continue;
      ++req_id;
      const double rtt_us = static_cast<double>(u.done_ns - u.sent_ns) / 1000.0;
      rtt.push_back(rtt_us);
      tax.push_back(rtt_us - u.serve_us);
      const std::int64_t root = tracer.add({"net.rtt", "net", u.sent_ns, u.done_ns, -1, 1, u.conn, req_id});
      const std::int64_t serve_ns = std::min<std::int64_t>(static_cast<std::int64_t>(u.serve_us * 1000.0),
                                                           u.done_ns - u.sent_ns);
      const std::int64_t s_end = u.done_ns;
      const std::int64_t s_begin = s_end - serve_ns;
      const std::int64_t serve = tracer.add({"service.serve", "service", s_begin, s_end, root, 1, u.conn, req_id});
      if (u.cache_hit) continue;
      double core_us = 0.0;
      double build_us = 0.0;
      if (rig.stream) {
        const EmbedRequest& r = rig.stream->distinct()[u.tag];
        const auto it = est.solve_us.find(solve_key(r.base, r.n, dbr::service::resolve_strategy(r)));
        if (it != est.solve_us.end()) core_us = it->second;
        if (!u.context_hit) {
          const auto b = est.build_us.find(instance_key(r.base, r.n));
          if (b != est.build_us.end()) build_us = b->second;
        }
      } else if (u.repaired) {
        core_us = est.repair_us;
      } else {
        const SessionPlan& plan = rig.sessions->plans()[u.conn];
        const auto it = est.solve_us.find(
            solve_key(plan.base.base, plan.base.n, dbr::service::resolve_strategy(plan.base)));
        if (it != est.solve_us.end()) core_us = it->second;
      }
      std::int64_t at = s_begin;
      if (build_us > 0.0) {
        const std::int64_t end = std::min(s_end, at + static_cast<std::int64_t>(build_us * 1000.0));
        tracer.add({"core.context.build", "core", at, end, serve, 1, u.conn, req_id});
        at = end;
      }
      if (core_us > 0.0 && at < s_end) {
        const std::int64_t end = std::min(s_end, at + static_cast<std::int64_t>(core_us * 1000.0));
        tracer.add({"core.solve", "core", at, end, serve, 1, u.conn, req_id});
      }
    }
    const Summary srtt = summarize(rtt);
    const Summary stax = summarize(tax);
    const Summary sserve = summarize(traced_closed.serve_us);
    const double solves = static_cast<double>(std::max<std::uint64_t>(1, traced_closed.solve_replies));
    const double misses = static_cast<double>(traced_closed.ok - traced_closed.cache_hits);
    std::uint64_t builds = 0;
    for (const UnitRecord& u : traced_closed.units)
      if (u.ok && !u.cache_hit && !u.context_hit && !u.repaired) ++builds;
    if (!rig.stream) builds = 0;  // sessions pin their contexts at configure time

    report.metric("net.rtt_us.p50", "us", srtt.p50);
    report.metric("net.rtt_us.p99", "us", srtt.p99);
    report.metric("net.wire_tax_us.p50", "us", stax.p50);
    report.metric("net.wire_tax_us.p99", "us", stax.p99);
    report.metric("net.saturation_ratio", "ratio", inproc_qps > 0 ? throughput / inproc_qps : 0.0);
    report.metric("net.reply_bytes.mean", "B", traced_closed.reply_bytes / solves);
    report.metric("net.overloaded", "count", static_cast<double>(tally.overloaded));
    report.metric("net.timeouts", "count", static_cast<double>(tally.timeouts));
    report.metric("net.protocol_errors", "count", static_cast<double>(tally.protocol_errors));
    report.metric("service.serve_us.p50", "us", sserve.p50);
    report.metric("service.serve_us.p99", "us", sserve.p99);
    report.metric("service.cache.hit_ratio", "ratio",
                  traced_closed.ok ? static_cast<double>(traced_closed.cache_hits) /
                                         static_cast<double>(traced_closed.ok) : 0.0);
    report.metric("service.context.hit_ratio", "ratio",
                  misses > 0 ? static_cast<double>(traced_closed.context_hits) / misses : 0.0);
    report.metric("service.context.builds", "count", static_cast<double>(builds));
    report.metric("verify.checked", "count", static_cast<double>(corr.checked));
    report.metric("verify.violations", "count", static_cast<double>(corr.violations));
    report.metric("verify.oracle_us.p50", "us", percentile(corr.oracle_us, 50.0));
    report.metric("gen.late_us.p99", "us", h50.late_p99_us);
    report.metric("gen.backlog_growth", "count", static_cast<double>(h50.backlog_growth));

    // Self-time shares over the request path (wire spans only).
    std::vector<Span> wire;
    for (const Span& s : tracer.spans())
      if (s.pid == 1) wire.push_back(s);
    // Parent indices refer to the full list; rebuild them for the subset.
    {
      std::vector<std::int64_t> remap(tracer.spans().size(), -1);
      std::int64_t j = 0;
      for (std::size_t i = 0; i < tracer.spans().size(); ++i)
        if (tracer.spans()[i].pid == 1) remap[i] = j++;
      for (Span& s : wire) s.parent = s.parent >= 0 ? remap[static_cast<std::size_t>(s.parent)] : -1;
    }
    const std::map<std::string, double> self = layer_self_ns(wire);
    double total = 0.0;
    for (const auto& [layer, ns] : self) total += ns;
    for (const char* layer : {"net", "service", "core"}) {
      const auto it = self.find(layer);
      report.metric(std::string("share.") + layer, "ratio",
                    total > 0 && it != self.end() ? it->second / total : 0.0);
    }
    const double plain = plain_closed.slice_rates.empty() ? plain_closed.ok_rate()
                                                          : median(plain_closed.slice_rates);
    report.metric("trace.overhead_pct", "%", plain > 0 ? 100.0 * (plain - throughput) / plain : 0.0);
    report.timing("traced_closed.rtt", rtt);
    report.timing("traced_closed.wire_tax", tax);
    report.timing("traced_closed.serve", traced_closed.serve_us);
    report.timing("verify.oracle", corr.oracle_us);
    phases << "{\"closed_untraced\": " << phase_json(plain_closed, nullptr)
           << ", \"closed_traced\": " << phase_json(traced_closed, nullptr)
           << ", \"open_r50\": " << phase_json(r50, &h50) << "}";
  }

  tally.attempted += corr.attempted;
  tally.failed += corr.failed;
  const bool correct = tally.protocol_errors == 0 && tally.wrong_answers == 0 &&
                       corr.failed == 0 && corr.findings.empty();

  std::ostringstream host;
  host << "{\"nproc\": " << conns << ", \"cpu_model\": " << json_str(cpu_model())
       << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
       << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << json_str(args.git_sha)
       << ", \"source_digest\": " << json_str(args.source_digest)
       << ", \"seed\": " << args.seed << ", \"workload\": " << json_str(wl.name)
       << ", \"seconds\": " << json_num(S) << ", \"trace\": " << args.trace
       << ", \"connections\": " << conns
       << ", \"r50\": " << json_num(wl.r50)
       << ", \"r80\": " << json_num(wl.r80) << ", \"p99_limit_us\": " << json_num(wl.p99_limit_us)
       << "}";
  report.section("host", host.str());
  report.section("phases", phases.str());
  report.section("correctness", correctness_json(corr));
  report.section("error_ratio", json_num(tally.error_ratio()));

  std::cout << "perfbench " << wl.name << " seed=" << args.seed << " trace=" << args.trace
            << " connections=" << conns << "\n"
            << report.table() << "  error_ratio " << tally.error_ratio() << " ("
            << tally.failed << "/" << tally.attempted << ")\n";
  for (const std::string& f : corr.findings) std::cout << "  FINDING " << f << "\n";

  std::system(("mkdir -p '" + args.out_dir + "'").c_str());
  const std::string stem = args.out_dir + "/" + wl.name + "-seed" + std::to_string(args.seed);
  const std::string result_path = stem + "-trace" + std::to_string(args.trace) + ".json";
  std::ofstream(result_path) << report.result_file(correct, tally.attempted, tally.failed);
  std::cout << "  result file " << result_path << "\n";
  if (traced) {
    const std::string trace_path = stem + ".trace.json";
    if (tracer.write_chrome(trace_path, origin, std::max<std::uint64_t>(1, traced_closed.ok / 4000)))
      std::cout << "  chrome trace " << trace_path << "\n";
  }
  std::cout << report.result_line(correct, tally.attempted, tally.failed) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") args.workload = v;
    else if (a == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") args.trace = std::atoi(v.c_str());
    else if (a == "--server") args.server = v;
    else if (a == "--out-dir") args.out_dir = v;
    else if (a == "--git-sha") args.git_sha = v;
    else if (a == "--source-digest") args.source_digest = v;
    else return usage();
  }
  if (args.workload.empty() || args.server.empty() || args.seconds <= 0.0) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
