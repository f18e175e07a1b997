#pragma once

// The four perfbench workloads. Every input is a pure function of the seed:
// the server only ever sees the requests generated here.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "service/types.hpp"
#include "util/rng.hpp"
#include "verify/scenario.hpp"

namespace perfbench {

using dbr::service::EmbedRequest;

enum class Shape : std::uint8_t {
  kHotVerdict,     ///< Zipf repeats over a warmed pool: result-cache hits
  kColdRing,       ///< fresh fault sets over resident contexts, rings returned
  kSessionChurn,   ///< per-connection sessions streaming churn events
  kInstanceSweep,  ///< more instances than the context LRU holds
};

/// Fixed parameters of one workload. The rates are absolute and never
/// derived from a run, so two commits face identical load.
struct Workload {
  std::string name;
  Shape shape = Shape::kHotVerdict;
  bool want_ring = false;                 ///< stateless solves ask for the ring
  std::vector<std::string> server_flags;  ///< extra embed_server flags
  double r50 = 0.0;                       ///< open-loop rate near 50% of throughput (1/s)
  double r80 = 0.0;                       ///< open-loop rate near 80% of throughput (1/s)
  double p99_limit_us = 0.0;              ///< capacity latency limit
  double ladder_base = 0.0;               ///< capacity ladder: base * 2^(k/12)
};

std::optional<Workload> find_workload(std::string_view name);
const std::vector<std::string>& workload_names();

/// Zipf(s) rank sampler over [0, n): rank k has weight 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t operator()(dbr::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One (base, n) instance.
struct Instance {
  dbr::Digit base = 2;
  unsigned n = 3;
};

/// The instance_sweep pool: about twice as many (d, n) instances of
/// 10^3..2^15 nodes as the server's 64-entry context LRU holds, smallest
/// first. Zipf ranks follow this order, so most traffic lands on small
/// instances (one smooth latency mode) while the rarely drawn large tail
/// keeps evicting and rebuilding contexts.
std::vector<Instance> sweep_instances();

/// Deterministic request source of a stateless workload. Every request
/// handed out is remembered as an index into distinct(), so the
/// correctness pass can re-send exactly what the timed phases sent.
class RequestStream {
 public:
  RequestStream(const Workload& workload, std::uint64_t seed);

  /// Requests sent once, untimed, before measurement starts.
  const std::vector<EmbedRequest>& warmup() const { return warmup_; }

  /// The next timed request; returns its index into distinct().
  std::uint32_t next();

  /// Every distinct request handed out so far (hot_verdict: the pool).
  const std::deque<EmbedRequest>& distinct() const { return distinct_; }
  /// Encoded kSolve payload of distinct()[i].
  const std::vector<std::uint8_t>& payload(std::uint32_t i) const { return payloads_[i]; }

 private:
  std::uint32_t add(EmbedRequest request);
  EmbedRequest fresh_request(const Instance& inst, int family);

  Shape shape_;
  bool want_ring_;
  dbr::Rng rng_;
  std::vector<EmbedRequest> warmup_;
  // Deques: growing them mid-phase never moves what is already stored, so
  // the generator does not stall while it keeps to its schedule.
  std::deque<EmbedRequest> distinct_;
  std::deque<std::vector<std::uint8_t>> payloads_;
  std::vector<Instance> instances_;
  std::vector<int> families_;  ///< cold_ring: request family per instance slot
  std::optional<ZipfSampler> zipf_;
  std::unordered_set<std::uint64_t> seen_;  ///< fingerprints of sent fault sets
};

/// session_churn: one configured session per connection and its seeded
/// churn script.
struct SessionPlan {
  EmbedRequest base;  ///< instance, fault kind and strategy; no faults
  dbr::verify::ChurnScript script;
};

std::vector<SessionPlan> make_sessions(std::uint64_t seed, std::size_t connections,
                                       std::size_t events);

/// The request naming `plan`'s instance with the given live fault set.
EmbedRequest session_request(const EmbedRequest& base,
                             const std::vector<dbr::Word>& nodes,
                             const std::vector<dbr::Word>& edges);

}  // namespace perfbench
