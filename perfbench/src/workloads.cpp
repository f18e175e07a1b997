#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "net/wire.hpp"
#include "util/word.hpp"

namespace perfbench {

namespace {

using dbr::Rng;
using dbr::Word;
using dbr::WordSpace;
using dbr::service::FaultKind;
using dbr::service::Strategy;

// Rates are absolute, set near 50% and 80% of the closed-loop throughput
// measured on the reference host (4 cores, see README.md).
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"hot_verdict", Shape::kHotVerdict, false, {}, 40000.0, 64000.0, 2000.0, 1000.0},
      {"cold_ring", Shape::kColdRing, true, {}, 2200.0, 3500.0, 20000.0, 100.0},
      {"session_churn", Shape::kSessionChurn, true, {"--repair"}, 5000.0, 8000.0, 20000.0, 100.0},
      // instance_sweep's r50 sits near 40%: bursts of context builds take
      // every core for milliseconds, and at 50% its median already queues
      // behind them by a seed-dependent amount.
      {"instance_sweep", Shape::kInstanceSweep, false, {}, 1200.0, 2400.0, 300000.0, 10.0},
  };
  return kAll;
}

std::uint64_t fingerprint(std::uint64_t slot, const EmbedRequest& r) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ slot;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  std::vector<Word> a = r.faults;
  std::vector<Word> b = r.edge_faults;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (Word w : a) mix(w);
  mix(~0ull);
  for (Word w : b) mix(w);
  return h;
}

// The mixed scenario families of hot_verdict / cold_ring.
enum Family : int { kNodeFfc = 0, kEdge = 1, kButterfly = 2, kMixed = 3 };

// One random request of `family` on `inst` with a seeded fault set inside
// the family's guarantee.
EmbedRequest make_request(Rng& rng, const Instance& inst, int family) {
  EmbedRequest req;
  req.base = inst.base;
  req.n = inst.n;
  const WordSpace ws(inst.base, inst.n);
  // Edge budgets: phi(3) = 1, phi(4) = 2, phi(5) = 3 (Section 3.3).
  const std::uint64_t edge_budget = inst.base <= 3 ? 1 : 2;
  switch (family) {
    case kNodeFfc: {
      req.fault_kind = FaultKind::kNode;
      for (Word v : rng.sample_distinct(ws.size(), 1 + rng.below(3))) req.faults.push_back(v);
      break;
    }
    case kEdge:
    case kButterfly: {
      req.fault_kind = FaultKind::kEdge;
      if (family == kButterfly) req.strategy = Strategy::kButterfly;
      for (Word v : rng.sample_distinct(ws.edge_word_count(), 1 + rng.below(edge_budget)))
        req.faults.push_back(v);
      break;
    }
    default: {
      req.fault_kind = FaultKind::kMixed;
      req.strategy = Strategy::kMixed;
      req.faults.push_back(rng.below(ws.size()));
      req.edge_faults.push_back(rng.below(ws.edge_word_count()));
      break;
    }
  }
  return req;
}

// Sweep instances that also draw edge-fault solves: bases 3..12 with at
// most 50000 edge words (keeps the psi edge index small).
bool sweep_edge_capable(const Instance& inst) {
  return inst.base >= 3 && inst.base <= 12 && inst.n >= 3 &&
         WordSpace(inst.base, inst.n).edge_word_count() <= 50000;
}

// hot_verdict draws its pool from these (family, instance) pairs.
struct Slot {
  int family;
  Instance inst;
};

const std::vector<Slot>& mixed_slots() {
  static const std::vector<Slot> kSlots = {
      {kNodeFfc, {2, 11}}, {kNodeFfc, {2, 12}}, {kNodeFfc, {3, 7}},
      {kEdge, {3, 7}},     {kEdge, {4, 6}},     {kEdge, {5, 5}},
      {kButterfly, {4, 5}}, {kButterfly, {5, 4}},
      {kMixed, {2, 10}},   {kMixed, {3, 6}},
  };
  return kSlots;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  for (const Workload& w : all_workloads())
    if (w.name == name) return w;
  return std::nullopt;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> out;
    for (const Workload& w : all_workloads()) out.push_back(w.name);
    return out;
  }();
  return kNames;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::operator()(Rng& rng) const {
  const double u = static_cast<double>(rng.below(1ull << 40)) /
                   static_cast<double>(1ull << 40);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<Instance> sweep_instances() {
  // n >= 3 graphs of 10^3..2^15 nodes, plus the n = 2 graphs B(d,2) for
  // d = 32..100 (10^3..10^4 nodes): about twice the 64 contexts the
  // server's LRU keeps, while the server's resident set (contexts plus a
  // result cache full of rings) stays a few hundred MB.
  std::vector<Instance> by_size;
  for (dbr::Digit d = 2; d <= 100; ++d) {
    for (unsigned n = 2; n <= 16; ++n) {
      const double size = std::pow(static_cast<double>(d), n);
      if (size > 32768.0) break;
      if (size >= 1e3 && (n >= 3 || d >= 32)) by_size.push_back({d, n});
    }
  }
  std::stable_sort(by_size.begin(), by_size.end(), [](const Instance& a, const Instance& b) {
    return WordSpace(a.base, a.n).size() < WordSpace(b.base, b.n).size();
  });
  return by_size;
}


RequestStream::RequestStream(const Workload& workload, std::uint64_t seed)
    : shape_(workload.shape), want_ring_(workload.want_ring), rng_(seed * 0x2545F4914F6CDD1Dull + 17) {
  seen_.reserve(1u << 19);
  switch (shape_) {
    case Shape::kHotVerdict: {
      // A warmed pool of 300 mixed scenarios; every timed request repeats one.
      const std::vector<Slot>& slots = mixed_slots();
      for (std::size_t i = 0; i < 300; ++i) {
        const Slot& s = slots[i % slots.size()];
        warmup_.push_back(make_request(rng_, s.inst, s.family));
        add(warmup_.back());
      }
      zipf_.emplace(distinct_.size(), 1.1);
      break;
    }
    case Shape::kColdRing: {
      // One request per (family, instance) slot builds the ten contexts.
      for (const Slot& s : mixed_slots()) {
        instances_.push_back(s.inst);
        families_.push_back(s.family);
        warmup_.push_back(fresh_request(s.inst, s.family));
      }
      break;
    }
    case Shape::kInstanceSweep: {
      instances_ = sweep_instances();
      zipf_.emplace(instances_.size(), 1.1);
      // Warm the 48 top-ranked instances: node tables, plus the edge
      // machinery on the ranks that draw edge faults.
      for (std::size_t i = 0; i < std::min<std::size_t>(48, instances_.size()); ++i) {
        warmup_.push_back(fresh_request(instances_[i], kNodeFfc));
        if (sweep_edge_capable(instances_[i]))
          warmup_.push_back(fresh_request(instances_[i], kEdge));
      }
      break;
    }
    case Shape::kSessionChurn:
      break;
  }
}

EmbedRequest RequestStream::fresh_request(const Instance& inst, int family) {
  EmbedRequest req;
  const std::uint64_t slot = (static_cast<std::uint64_t>(inst.base) << 40) |
                             (static_cast<std::uint64_t>(inst.n) << 8) |
                             static_cast<std::uint64_t>(family);
  for (int attempt = 0; attempt < 64; ++attempt) {
    req = make_request(rng_, inst, family);
    if (seen_.insert(fingerprint(slot, req)).second) break;
  }
  return req;
}

std::uint32_t RequestStream::add(EmbedRequest request) {
  std::vector<std::uint8_t> bytes;
  dbr::net::encode_request(bytes, request, want_ring_);
  payloads_.push_back(std::move(bytes));
  distinct_.push_back(std::move(request));
  return static_cast<std::uint32_t>(distinct_.size() - 1);
}

std::uint32_t RequestStream::next() {
  switch (shape_) {
    case Shape::kHotVerdict:
      return static_cast<std::uint32_t>((*zipf_)(rng_));
    case Shape::kColdRing: {
      const std::size_t slot = rng_.below(instances_.size());
      return add(fresh_request(instances_[slot], families_[slot]));
    }
    case Shape::kInstanceSweep: {
      const Instance& inst = instances_[(*zipf_)(rng_)];
      const bool edge = sweep_edge_capable(inst) && rng_.below(10) < 3;
      return add(fresh_request(inst, edge ? kEdge : kNodeFfc));
    }
    case Shape::kSessionChurn:
      break;
  }
  return 0;
}

std::vector<SessionPlan> make_sessions(std::uint64_t seed, std::size_t connections,
                                       std::size_t events) {
  struct SessionShape {
    Instance inst;
    FaultKind kind;
    std::uint64_t max_live;
  };
  static constexpr SessionShape kShapes[] = {
      {{2, 12}, FaultKind::kNode, 3},
      {{4, 6}, FaultKind::kEdge, 2},
      {{2, 10}, FaultKind::kMixed, 2},
      {{3, 7}, FaultKind::kNode, 1},
  };
  std::vector<SessionPlan> out;
  for (std::size_t c = 0; c < connections; ++c) {
    const SessionShape& s = kShapes[c % std::size(kShapes)];
    SessionPlan plan;
    plan.base.base = s.inst.base;
    plan.base.n = s.inst.n;
    plan.base.fault_kind = s.kind;
    plan.base.strategy = s.kind == FaultKind::kMixed ? Strategy::kMixed : Strategy::kAuto;
    plan.script = dbr::verify::make_churn_script(seed * 1009 + c, plan.base, events,
                                                 s.max_live);
    out.push_back(std::move(plan));
  }
  return out;
}

EmbedRequest session_request(const EmbedRequest& base, const std::vector<Word>& nodes,
                             const std::vector<Word>& edges) {
  EmbedRequest req = base;
  req.faults.clear();
  req.edge_faults.clear();
  switch (base.fault_kind) {
    case FaultKind::kNode: req.faults = nodes; break;
    case FaultKind::kEdge: req.faults = edges; break;
    case FaultKind::kMixed:
      req.faults = nodes;
      req.edge_faults = edges;
      break;
  }
  return req;
}

}  // namespace perfbench
