#pragma once

// Single-threaded epoll load generator over K loopback connections to
// embed_server. One loop drives both modes:
//  * closed loop: each connection sends its next unit when the previous
//    unit's reply arrives;
//  * open loop: units fall due on a fixed-rate schedule (round-robin over
//    the connections) and are timed from their due time, so a stall shows
//    up as latency of every unit that waited behind it.
// A unit is one request frame, or a burst of frames whose last reply
// completes it (a churn event: fault op + session solve).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

/// One request frame of a unit.
struct FrameOut {
  dbr::net::Op op = dbr::net::Op::kSolve;
  std::span<const std::uint8_t> payload;
};

/// One decoded reply frame.
struct ReplyView {
  dbr::net::Op op = dbr::net::Op::kSolve;
  dbr::net::WireStatus status = dbr::net::WireStatus::kOk;
  const dbr::net::WireEmbed* embed = nullptr;  ///< solve ops answered kOk
  bool changed = false;                        ///< fault ops answered kOk
  std::size_t frame_bytes = 0;                 ///< header + payload
};

/// Supplies units and judges their replies.
class Feed {
 public:
  virtual ~Feed() = default;
  /// Fills `frames` with the next unit for `conn` and its `tag`; false when
  /// the connection has nothing left to send.
  virtual bool next_unit(std::size_t conn, std::vector<FrameOut>& frames,
                         std::uint64_t* tag) = 0;
  /// Judges one kOk reply of unit `tag`; false marks a wrong answer.
  virtual bool check(std::size_t conn, std::uint64_t tag, const ReplyView& reply) = 0;
};

/// Per-unit record kept when a phase is traced.
struct UnitRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  double serve_us = 0.0;  ///< server-reported latency_micros of the final reply
  std::uint64_t tag = 0;
  std::uint32_t conn = 0;
  bool ok = false;
  bool cache_hit = false;
  bool context_hit = false;
  bool repaired = false;
};

/// Outcome of one phase.
struct PhaseResult {
  double seconds = 0.0;       ///< measured window
  double offered_rate = 0.0;  ///< open-loop schedule rate; 0 for closed loop
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;  ///< kTimeout replies plus units never answered
  std::uint64_t protocol_errors = 0;
  std::uint64_t bad_status = 0;
  std::uint64_t wrong_answers = 0;
  std::uint64_t solve_replies = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t context_hits = 0;  ///< among result-cache misses
  std::uint64_t repaired = 0;
  double reply_bytes = 0.0;  ///< summed over solve replies
  std::vector<double> latency_us;  ///< ok units: from due (open) / send (closed)
  std::vector<double> due_s;       ///< ok units: due time, seconds into the phase
  std::vector<double> serve_us;    ///< ok units: server-reported
  std::vector<double> late_us;     ///< open loop: send time minus due time
  std::vector<double> slice_rates; ///< ok completions per second, 250 ms slices
  std::int64_t backlog_mid = 0;    ///< units outstanding at half time
  std::int64_t backlog_end = 0;    ///< units outstanding when sending stops
  std::vector<UnitRecord> units;   ///< filled when Options::record_units

  double ok_rate() const { return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0; }
  double error_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

class LoadGen {
 public:
  struct Options {
    double seconds = 0.0;         ///< sending window; 0 = until max_units
    double rate = 0.0;            ///< open-loop rate; 0 = closed loop
    std::uint64_t max_units = 0;  ///< closed loop: stop after this many (0 = no cap)
    bool record_units = false;
    double drain_seconds = 10.0;  ///< wait for stragglers after the window
  };

  /// Connects `connections` sockets to 127.0.0.1:port.
  LoadGen(std::uint16_t port, std::size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  std::size_t connections() const { return conns_.size(); }

  PhaseResult run(Feed& feed, const Options& options);

 private:
  struct Pending {
    std::uint32_t id;
    dbr::net::Op op;
    bool final;
    std::uint32_t unit;
  };
  struct Conn;

  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench
