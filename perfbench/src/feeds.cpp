#include "feeds.hpp"

#include <algorithm>

namespace perfbench {

using dbr::Word;
using dbr::net::Op;
using dbr::net::WireEmbed;
using dbr::net::WireWriter;
using dbr::service::EmbedStatus;
using dbr::service::FaultKind;

namespace {

// Reply sanity every solve answer must pass: a wire-level answer whose
// fields contradict each other (ring length outside its own bounds, a ring
// that was not asked for, a quarantined result) is a wrong answer.
bool embed_consistent(const WireEmbed& e, bool want_ring) {
  if (e.quarantined || e.has_ring != want_ring) return false;
  if (e.has_ring && e.ring.size() != e.ring_length) return false;
  if (e.status == EmbedStatus::kOk)
    return e.ring_length > 0 && e.lower_bound <= e.ring_length && e.ring_length <= e.upper_bound;
  return e.status == EmbedStatus::kNoEmbedding && e.ring_length == 0;
}

}  // namespace

dbr::service::EmbedResult to_result(const WireEmbed& e) {
  dbr::service::EmbedResult r;
  r.status = e.status;
  r.strategy_used = e.strategy_used;
  r.ring.nodes = e.ring;
  r.ring_length = e.ring_length;
  r.lower_bound = e.lower_bound;
  r.upper_bound = e.upper_bound;
  r.compute_micros = e.compute_micros;
  r.error = e.error;
  r.quarantined = e.quarantined;
  return r;
}

// --- StatelessFeed -----------------------------------------------------------

StatelessFeed::StatelessFeed(RequestStream& stream, bool want_ring)
    : stream_(stream), want_ring_(want_ring) {}

void StatelessFeed::begin_warmup() {
  warm_ = true;
  warm_next_ = 0;
}

bool StatelessFeed::next_unit(std::size_t, std::vector<FrameOut>& frames, std::uint64_t* tag) {
  if (warm_) {
    if (warm_next_ >= stream_.warmup().size()) return false;
    warm_payload_.clear();
    dbr::net::encode_request(warm_payload_, stream_.warmup()[warm_next_], want_ring_);
    *tag = warm_next_++;
    frames.push_back({Op::kSolve, warm_payload_});
    return true;
  }
  const std::uint32_t idx = stream_.next();
  *tag = idx;
  frames.push_back({Op::kSolve, stream_.payload(idx)});
  return true;
}

bool StatelessFeed::check(std::size_t, std::uint64_t, const ReplyView& reply) {
  return reply.embed != nullptr && embed_consistent(*reply.embed, want_ring_);
}

// --- SessionFeed -------------------------------------------------------------

SessionFeed::SessionFeed(std::vector<SessionPlan> plans)
    : plans_(std::move(plans)), state_(plans_.size()) {
  WireWriter w(solve_payload_);
  w.u8(1);  // want_ring: an event is timed until its new ring arrives
}

void SessionFeed::begin_warmup() {
  warm_ = true;
  std::fill(state_.begin(), state_.end(), State{});
  sampled_.clear();
  samples_.clear();
  sequence_ = 0;
}

bool SessionFeed::next_unit(std::size_t conn, std::vector<FrameOut>& frames,
                            std::uint64_t* tag) {
  if (conn >= state_.size()) return false;
  State& st = state_[conn];
  const SessionPlan& plan = plans_[conn];
  op_payload_.clear();
  WireWriter w(op_payload_);
  if (warm_) {
    if (st.configured) return false;
    st.configured = true;
    w.u32(plan.base.base);
    w.u32(plan.base.n);
    w.u8(static_cast<std::uint8_t>(plan.base.fault_kind));
    w.u8(static_cast<std::uint8_t>(plan.base.strategy));
    w.u16(0);
    *tag = ~0ull;
    frames.push_back({Op::kSessionConfig, op_payload_});
    frames.push_back({Op::kSessionSolve, solve_payload_});
    return true;
  }
  if (st.cursor >= plan.script.events.size()) return false;
  const dbr::verify::ChurnEvent& ev = plan.script.events[st.cursor];
  std::vector<Word>& live = ev.kind == FaultKind::kEdge ? st.edges : st.nodes;
  const auto at = std::lower_bound(live.begin(), live.end(), ev.fault);
  if (ev.add) {
    if (at == live.end() || *at != ev.fault) live.insert(at, ev.fault);
  } else if (at != live.end() && *at == ev.fault) {
    live.erase(at);
  }
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.u64(ev.fault);
  *tag = (static_cast<std::uint64_t>(conn) << 40) | st.cursor;
  ++st.cursor;
  if (++sequence_ % 37 == 0 && samples_.size() + sampled_.size() < 400)
    sampled_.emplace(*tag, session_request(plan.base, st.nodes, st.edges));
  frames.push_back({ev.add ? Op::kFaultAdd : Op::kFaultRemove, op_payload_});
  frames.push_back({Op::kSessionSolve, solve_payload_});
  return true;
}

bool SessionFeed::check(std::size_t, std::uint64_t tag, const ReplyView& reply) {
  if (reply.op == Op::kSessionConfig) return true;
  // Every scripted event mutates the live set, so the session must say so.
  if (reply.op == Op::kFaultAdd || reply.op == Op::kFaultRemove) return reply.changed;
  if (reply.embed == nullptr || !embed_consistent(*reply.embed, true)) return false;
  const auto it = sampled_.find(tag);
  if (it != sampled_.end()) {
    samples_.push_back({std::move(it->second), *reply.embed});
    sampled_.erase(it);
  }
  return true;
}

// --- ResendFeed --------------------------------------------------------------

ResendFeed::ResendFeed(const std::vector<EmbedRequest>& requests)
    : replies_(requests.size()), answered_(requests.size(), false) {
  for (const EmbedRequest& r : requests) {
    std::vector<std::uint8_t> bytes;
    dbr::net::encode_request(bytes, r, true);
    payloads_.push_back(std::move(bytes));
  }
}

bool ResendFeed::next_unit(std::size_t, std::vector<FrameOut>& frames, std::uint64_t* tag) {
  if (next_ >= payloads_.size()) return false;
  *tag = next_;
  frames.push_back({Op::kSolve, payloads_[next_++]});
  return true;
}

bool ResendFeed::check(std::size_t, std::uint64_t tag, const ReplyView& reply) {
  if (reply.embed == nullptr || tag >= replies_.size()) return false;
  replies_[tag] = *reply.embed;
  answered_[tag] = true;
  return embed_consistent(*reply.embed, true);
}

}  // namespace perfbench
