#pragma once

/// \file
/// net::Client — a small blocking client for the wire protocol. One client
/// drives one connection; requests are synchronous round-trips except
/// solve_pipeline(), which writes a whole batch of kSolve frames before
/// reading any reply (the load generator's high-throughput mode — the
/// server batches a pipelined burst into one worker task). Not thread-safe;
/// use one Client per thread.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/types.hpp"

namespace dbr::net {

/// Socket-level failure (connect/read/write error, peer hangup, receive
/// timeout, or an unparseable reply stream). Wire-level rejections (e.g.
/// kOverloaded) are *statuses*, not exceptions — load tests count them.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Blocking wire-protocol client. See the file comment for the model.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad or "localhost"). The timeout
  /// bounds every subsequent receive, so a stuck server surfaces as a
  /// TransportError instead of a hang.
  void connect(const std::string& host, std::uint16_t port,
               double timeout_ms = 10000.0);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Status-plus-message reply of an op with no result body.
  struct Reply {
    WireStatus status = WireStatus::kInternal;
    std::string message;
  };
  /// Reply of a solve op; `embed` is valid only when status == kOk.
  struct SolveReply : Reply {
    WireEmbed embed;
  };
  /// Reply of a fault add/remove; `changed` mirrors the session bool.
  struct FaultReply : Reply {
    bool changed = false;
  };
  /// Reply of the STATS op; `stats` is valid only when status == kOk.
  struct StatsReply : Reply {
    WireStats stats;
  };

  /// One stateless solve round-trip.
  SolveReply solve(const service::EmbedRequest& request, bool want_ring = true);

  /// Writes every request frame back-to-back, then reads the replies in
  /// order. Replies come back in request order (the server serializes ops
  /// per connection).
  std::vector<SolveReply> solve_pipeline(
      std::span<const service::EmbedRequest> requests, bool want_ring);

  /// Binds this connection's session instance; resets any prior session.
  Reply configure_session(Digit base, unsigned n, service::FaultKind kind,
                          service::Strategy strategy = service::Strategy::kAuto);
  FaultReply add_fault(service::FaultKind kind, Word fault);
  FaultReply clear_fault(service::FaultKind kind, Word fault);
  Reply reset_faults();
  /// current_ring() of the connection's session.
  SolveReply session_solve(bool want_ring = true);
  /// Coherent engine + server (+ this connection's session) stats snapshot.
  /// Throws TransportError on a malformed payload, trailing bytes included.
  StatsReply stats();

 private:
  void send_bytes(const std::uint8_t* data, std::size_t size);
  void send_frame(Op op, std::uint32_t request_id,
                  std::span<const std::uint8_t> payload);
  /// Reads until one complete frame is available; validates the reply bit
  /// and the echoed request id.
  Frame recv_reply(Op op, std::uint32_t request_id);
  SolveReply parse_solve_reply(const Frame& frame);

  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  FrameParser parser_;
};

}  // namespace dbr::net
