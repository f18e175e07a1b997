#pragma once

// The Feed implementations: what each workload puts on the wire and how
// each reply is judged while the clock runs.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "loadgen.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The EmbedResult a wire answer stands for (for the oracle).
dbr::service::EmbedResult to_result(const dbr::net::WireEmbed& e);

/// Stateless kSolve traffic from a RequestStream. In warmup mode it sends
/// the stream's warmup list once, in order; otherwise the timed stream.
class StatelessFeed : public Feed {
 public:
  StatelessFeed(RequestStream& stream, bool want_ring);
  void begin_warmup();
  void end_warmup() { warm_ = false; }

  bool next_unit(std::size_t conn, std::vector<FrameOut>& frames, std::uint64_t* tag) override;
  bool check(std::size_t conn, std::uint64_t tag, const ReplyView& reply) override;

 private:
  RequestStream& stream_;
  bool want_ring_;
  bool warm_ = false;
  std::size_t warm_next_ = 0;
  std::vector<std::uint8_t> warm_payload_;
};

/// One session ring kept for the oracle: the live fault set it answers.
struct SessionSample {
  EmbedRequest request;
  dbr::net::WireEmbed embed;
};

/// session_churn traffic: warmup configures each connection's session and
/// solves its first ring; timed units are churn events (fault op +
/// session solve). Every 37th event's ring is kept for the oracle.
class SessionFeed : public Feed {
 public:
  explicit SessionFeed(std::vector<SessionPlan> plans);
  void begin_warmup();
  void end_warmup() { warm_ = false; }

  bool next_unit(std::size_t conn, std::vector<FrameOut>& frames, std::uint64_t* tag) override;
  bool check(std::size_t conn, std::uint64_t tag, const ReplyView& reply) override;

  const std::vector<SessionPlan>& plans() const { return plans_; }
  const std::vector<SessionSample>& samples() const { return samples_; }

 private:
  struct State {
    bool configured = false;
    std::size_t cursor = 0;
    std::vector<dbr::Word> nodes;
    std::vector<dbr::Word> edges;
  };

  std::vector<SessionPlan> plans_;
  std::vector<State> state_;
  bool warm_ = false;
  std::vector<std::uint8_t> op_payload_;
  std::vector<std::uint8_t> solve_payload_;
  std::unordered_map<std::uint64_t, EmbedRequest> sampled_;
  std::vector<SessionSample> samples_;
  std::uint64_t sequence_ = 0;
};

/// The correctness pass: each listed request once, ring requested, every
/// answer kept.
class ResendFeed : public Feed {
 public:
  explicit ResendFeed(const std::vector<EmbedRequest>& requests);

  bool next_unit(std::size_t conn, std::vector<FrameOut>& frames, std::uint64_t* tag) override;
  bool check(std::size_t conn, std::uint64_t tag, const ReplyView& reply) override;

  const std::vector<dbr::net::WireEmbed>& replies() const { return replies_; }
  const std::vector<bool>& answered() const { return answered_; }

 private:
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<dbr::net::WireEmbed> replies_;
  std::vector<bool> answered_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
