#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine.hpp"
#include "service/session.hpp"

// End-to-end tests of net::Server over real loopback sockets: wire answers
// must be bit-identical to in-process engine answers, and each production
// state — backpressure (kOverloaded), per-request timeouts (kTimeout),
// graceful drain (kShuttingDown + clean exit), malformed-stream handling and
// the output cap for a peer that never reads — has a dedicated test. The
// NetServerHitPath tests pin result-cache hits answered on the event loop:
// byte-identical to worker-served replies, FIFO behind in-flight work, and
// counted once. Servers bind ephemeral ports (ServerOptions::port = 0), so
// tests never collide with each other or with the host.

namespace dbr::net {
namespace {

using service::EmbedEngine;
using service::EmbedRequest;
using service::EmbedResponse;
using service::EmbedStatus;
using service::EngineOptions;
using service::FaultKind;
using service::Strategy;

EmbedRequest node_request(Digit d, unsigned n, std::vector<Word> faults) {
  EmbedRequest req;
  req.base = d;
  req.n = n;
  req.fault_kind = FaultKind::kNode;
  req.faults = std::move(faults);
  return req;
}

/// A raw loopback connection, for tests that need exact reply bytes or a
/// peer that pipelines without reading.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  bool connected() const { return connected_; }

  /// Blocking send of every byte; false on a socket error.
  bool send(std::span<const std::uint8_t> bytes) {
    while (!bytes.empty()) {
      const ssize_t w = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (w <= 0) return false;
      bytes = bytes.subspan(static_cast<std::size_t>(w));
    }
    return true;
  }

  /// Blocks for the next whole frame and returns its bytes, header
  /// included; empty once the peer closed.
  std::vector<std::uint8_t> read_frame() {
    for (;;) {
      FrameError err = FrameError::kNone;
      const auto header = decode_header(buf_, &err);
      if (header && buf_.size() >= kHeaderSize + header->payload_len) {
        const auto end = buf_.begin() + static_cast<std::ptrdiff_t>(
                                            kHeaderSize + header->payload_len);
        std::vector<std::uint8_t> frame(buf_.begin(), end);
        buf_.erase(buf_.begin(), end);
        return frame;
      }
      std::uint8_t chunk[64 * 1024];
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) return {};
      buf_.insert(buf_.end(), chunk, chunk + r);
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  std::vector<std::uint8_t> buf_;
};

/// One request frame: header plus payload.
std::vector<std::uint8_t> request_frame(Op op, std::uint32_t request_id,
                                        std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  encode_header(frame, static_cast<std::uint8_t>(op), request_id,
                static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::vector<std::uint8_t> solve_frame(std::uint32_t request_id,
                                      const EmbedRequest& request,
                                      bool want_ring) {
  std::vector<std::uint8_t> payload;
  encode_request(payload, request, want_ring);
  return request_frame(Op::kSolve, request_id, payload);
}

/// Decodes a solve reply frame; fails the test on anything but kOk.
WireEmbed decode_solve_reply(std::span<const std::uint8_t> frame) {
  WireEmbed embed;
  if (frame.size() < kHeaderSize) {
    ADD_FAILURE() << "no reply frame (connection closed)";
    return embed;
  }
  WireReader r(frame.subspan(kHeaderSize));
  EXPECT_EQ(static_cast<WireStatus>(r.u8()), WireStatus::kOk);
  EXPECT_TRUE(decode_embed(r, &embed));
  return embed;
}

/// Offset of the server-measured latency_micros f64 in a kOk solve reply
/// frame: header, status byte, six flag bytes and a reserved u16, three u64
/// lengths/bounds, then compute_micros.
constexpr std::size_t kLatencyOffset = kHeaderSize + 1 + 8 + 3 * 8 + 8;

/// Zeroes the one field of a solve reply that legitimately differs per
/// serve, so replies can be compared byte for byte.
void zero_latency(std::vector<std::uint8_t>& frame) {
  ASSERT_GE(frame.size(), kLatencyOffset + 8);
  std::fill_n(frame.begin() + kLatencyOffset, 8, std::uint8_t{0});
}

/// Resident set size of this process (server and client alike) in KiB.
long rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

/// Engine + started server + connected client, torn down in order.
struct Rig {
  explicit Rig(ServerOptions options = {}, EngineOptions engine_options = {}) {
    engine = std::make_unique<EmbedEngine>(engine_options);
    server = std::make_unique<Server>(*engine, options);
    server->start();
    client.connect("127.0.0.1", server->port());
  }
  ~Rig() {
    client.close();
    if (server && !server->stopped()) server->stop();
  }

  std::unique_ptr<EmbedEngine> engine;
  std::unique_ptr<Server> server;
  Client client;
};

TEST(NetServer, SolveMatchesInProcessAnswerBitForBit) {
  Rig rig;
  const EmbedRequest req = node_request(2, 11, {5, 99, 1234});
  const EmbedResponse local = rig.engine->query(req);
  ASSERT_EQ(local.result->status, EmbedStatus::kOk);

  const Client::SolveReply remote = rig.client.solve(req, /*want_ring=*/true);
  ASSERT_EQ(remote.status, WireStatus::kOk) << remote.message;
  EXPECT_EQ(remote.embed.status, local.result->status);
  EXPECT_EQ(remote.embed.strategy_used, local.result->strategy_used);
  EXPECT_EQ(remote.embed.ring_length, local.result->ring_length);
  EXPECT_EQ(remote.embed.lower_bound, local.result->lower_bound);
  EXPECT_EQ(remote.embed.upper_bound, local.result->upper_bound);
  ASSERT_TRUE(remote.embed.has_ring);
  // The engine caches results, so the wire answer is the *same* computation
  // — the ring words must match exactly, not just be equally valid.
  EXPECT_EQ(remote.embed.ring, local.result->ring.nodes);
  EXPECT_TRUE(remote.embed.cache_hit);  // local.query() filled the cache
}

TEST(NetServer, PipelinedBurstKeepsRequestOrder) {
  Rig rig;
  std::vector<EmbedRequest> reqs;
  for (Word f = 1; f <= 8; ++f) reqs.push_back(node_request(2, 11, {f}));
  const std::vector<Client::SolveReply> replies =
      rig.client.solve_pipeline(reqs, /*want_ring=*/false);
  ASSERT_EQ(replies.size(), reqs.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].status, WireStatus::kOk)
        << "i=" << i << " " << replies[i].message;
    EXPECT_EQ(replies[i].embed.status, EmbedStatus::kOk) << "i=" << i;
    EXPECT_FALSE(replies[i].embed.has_ring) << "i=" << i;
    // Distinct faults produce distinct cache keys; matching each reply to
    // its request's in-process answer proves replies did not reorder.
    const EmbedResponse local = rig.engine->query(reqs[i]);
    EXPECT_EQ(replies[i].embed.ring_length, local.result->ring_length)
        << "i=" << i;
  }
}

TEST(NetServer, ManyPipelinedConnectionsAnswerInOrder) {
  ServerOptions opts;
  opts.workers = 4;
  Rig rig(opts);

  // Warmed hot set: every draw from it is a result-cache hit.
  EmbedRequest edge;
  edge.base = 3;
  edge.n = 5;
  edge.fault_kind = FaultKind::kEdge;
  edge.faults = {17};
  const std::vector<EmbedRequest> hot = {
      node_request(2, 10, {600}), node_request(2, 10, {700, 900}), edge,
      node_request(3, 6, {42})};
  for (const EmbedRequest& req : hot) rig.engine->query(req);

  // Each connection sends one burst of [hot hit, fresh miss, repeat of that
  // miss (a hit once it is filled)] triples; fresh fault words are distinct
  // across connections, so every fresh solve is a miss.
  constexpr std::size_t kConnections = 32;
  constexpr std::size_t kBurst = 12;
  std::vector<std::vector<EmbedRequest>> bursts(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      if (i % 3 == 0) {
        bursts[c].push_back(hot[(c + i) % hot.size()]);
      } else if (i % 3 == 1) {
        bursts[c].push_back(node_request(2, 10, {1 + c * kBurst + i}));
      } else {
        bursts[c].push_back(bursts[c].back());
      }
    }
  }

  // Client::solve_pipeline writes the whole burst before reading and throws
  // on any reply whose request id or opcode does not match, so a reply out
  // of request order surfaces as an error here.
  std::vector<std::vector<Client::SolveReply>> replies(kConnections);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", rig.server->port());
        replies[c] = client.solve_pipeline(bursts[c], /*want_ring=*/true);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EmbedEngine reference;
  for (std::size_t c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(errors[c].empty()) << "connection " << c << ": " << errors[c];
    ASSERT_EQ(replies[c].size(), kBurst) << "connection " << c;
    for (std::size_t i = 0; i < kBurst; ++i) {
      const Client::SolveReply& got = replies[c][i];
      ASSERT_EQ(got.status, WireStatus::kOk)
          << "c=" << c << " i=" << i << " " << got.message;
      const EmbedResponse want = reference.query(bursts[c][i]);
      ASSERT_EQ(want.result->status, EmbedStatus::kOk);
      EXPECT_EQ(got.embed.status, want.result->status) << "c=" << c << " i=" << i;
      EXPECT_EQ(got.embed.strategy_used, want.result->strategy_used)
          << "c=" << c << " i=" << i;
      EXPECT_EQ(got.embed.lower_bound, want.result->lower_bound)
          << "c=" << c << " i=" << i;
      EXPECT_EQ(got.embed.upper_bound, want.result->upper_bound)
          << "c=" << c << " i=" << i;
      ASSERT_TRUE(got.embed.has_ring) << "c=" << c << " i=" << i;
      EXPECT_EQ(got.embed.ring, want.result->ring.nodes)
          << "c=" << c << " i=" << i;
      EXPECT_EQ(got.embed.cache_hit, i % 3 != 1) << "c=" << c << " i=" << i;
    }
  }
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.solves, kConnections * kBurst);
  EXPECT_EQ(stats.overloaded, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(NetServer, SessionWalkthroughMirrorsInProcessSession) {
  EngineOptions eopts;
  eopts.incremental_repair = true;
  Rig rig({}, eopts);

  // Wire session and a local mirror on an identical second engine, stepped
  // in lockstep: every current_ring must agree on status and length.
  EmbedEngine local_engine(eopts);
  service::EmbedSession local(local_engine, 2, 11, FaultKind::kNode);

  ASSERT_EQ(rig.client.configure_session(2, 11, FaultKind::kNode).status,
            WireStatus::kOk);
  for (const Word fault : {Word{3}, Word{200}, Word{777}}) {
    const Client::FaultReply fr = rig.client.add_fault(FaultKind::kNode, fault);
    ASSERT_EQ(fr.status, WireStatus::kOk) << fr.message;
    EXPECT_TRUE(fr.changed);
    EXPECT_TRUE(local.add_fault(FaultKind::kNode, fault));
    const Client::SolveReply remote = rig.client.session_solve();
    const EmbedResponse mirror = local.current_ring();
    ASSERT_EQ(remote.status, WireStatus::kOk) << remote.message;
    EXPECT_EQ(remote.embed.status, mirror.result->status);
    EXPECT_EQ(remote.embed.ring_length, mirror.result->ring_length);
  }
  // Removing a fault exercises the repair path over the wire.
  ASSERT_EQ(rig.client.clear_fault(FaultKind::kNode, 200).status,
            WireStatus::kOk);
  EXPECT_TRUE(local.clear_fault(FaultKind::kNode, 200));
  const Client::SolveReply repaired = rig.client.session_solve();
  const EmbedResponse mirror = local.current_ring();
  ASSERT_EQ(repaired.status, WireStatus::kOk) << repaired.message;
  EXPECT_EQ(repaired.embed.status, mirror.result->status);
  EXPECT_EQ(repaired.embed.ring_length, mirror.result->ring_length);
  EXPECT_EQ(repaired.embed.repaired, mirror.repaired);

  ASSERT_EQ(rig.client.reset_faults().status, WireStatus::kOk);
  const Client::SolveReply clean = rig.client.session_solve();
  ASSERT_EQ(clean.status, WireStatus::kOk);
  EXPECT_EQ(clean.embed.status, EmbedStatus::kOk);
}

TEST(NetServer, SessionOpsBeforeConfigAnswerNoSession) {
  Rig rig;
  EXPECT_EQ(rig.client.add_fault(FaultKind::kNode, 1).status,
            WireStatus::kNoSession);
  EXPECT_EQ(rig.client.session_solve().status, WireStatus::kNoSession);
  EXPECT_EQ(rig.client.reset_faults().status, WireStatus::kNoSession);
  // The connection survives the rejections.
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, BadInstanceAnswersBadRequestNotDisconnect) {
  Rig rig;
  ASSERT_EQ(rig.client.configure_session(1, 0, FaultKind::kNode).status,
            WireStatus::kOk);  // config stores, the session is lazy
  const Client::SolveReply reply = rig.client.session_solve();
  EXPECT_EQ(reply.status, WireStatus::kBadRequest);
  EXPECT_FALSE(reply.message.empty());
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, BackpressureEngagesUnderTinyQueueBound) {
  ServerOptions opts;
  opts.workers = 1;
  opts.max_pending = 1;
  opts.debug_solve_delay_ms = 30.0;  // hold the one admitted slot busy
  Rig rig(opts);

  // Several clients firing concurrently against one slow worker and a
  // one-deep admission queue: at least one must bounce with kOverloaded,
  // and every reply must be either kOk or kOverloaded — never a hang, a
  // disconnect, or a reordering.
  constexpr int kClients = 5;
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client c;
      c.connect("127.0.0.1", rig.server->port());
      const Client::SolveReply r =
          c.solve(node_request(2, 11, {static_cast<Word>(t + 1)}), false);
      if (r.status == WireStatus::kOk)
        ok.fetch_add(1);
      else if (r.status == WireStatus::kOverloaded)
        overloaded.fetch_add(1);
      else
        other.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(ok.load() + overloaded.load(), kClients);
  EXPECT_GE(rig.server->stats().overloaded, 1u);
}

TEST(NetServer, RequestPastDeadlineAnswersTimeout) {
  ServerOptions opts;
  opts.workers = 1;
  opts.request_timeout_ms = 10.0;
  opts.debug_solve_delay_ms = 50.0;  // every solve overruns the deadline
  Rig rig(opts);
  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 11, {42}), false);
  EXPECT_EQ(reply.status, WireStatus::kTimeout);
  EXPECT_GE(rig.server->stats().timeouts, 1u);
  // The connection is still healthy after a timeout reply.
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, TightDeadlineEnforcedAtReplyEnqueue) {
  ServerOptions opts;
  opts.workers = 1;
  opts.request_timeout_ms = 1.0;  // tighter than any cold solve
  Rig rig(opts);
  // No debug delay: a genuine cold solve of B(2,15) (context build plus the
  // full FFC construction over 32768 nodes, ring encoding included) takes
  // well over a millisecond, so its kOk payload is ready only after the
  // budget. The server must swap it for kTimeout when the reply is
  // enqueued — a late success must never reach the wire.
  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 15, {42}), /*want_ring=*/true);
  EXPECT_EQ(reply.status, WireStatus::kTimeout);
  EXPECT_GE(rig.server->stats().timeouts, 1u);
  // The connection is still healthy after the timeout reply.
  EXPECT_EQ(rig.client.stats().status, WireStatus::kOk);
}

TEST(NetServer, GracefulDrainFinishesInFlightAndRejectsNew) {
  ServerOptions opts;
  opts.workers = 1;
  opts.debug_solve_delay_ms = 50.0;
  Rig rig(opts);

  // One slow solve in flight when drain starts: it must complete with kOk
  // (drain finishes admitted work; it does not cancel it).
  std::thread in_flight([&] {
    Client c;
    c.connect("127.0.0.1", rig.server->port());
    const Client::SolveReply r = c.solve(node_request(2, 11, {7}), false);
    EXPECT_EQ(r.status, WireStatus::kOk) << r.message;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  rig.server->drain();

  // Frames arriving after drain() answer kShuttingDown (while the in-flight
  // solve still holds the worker, proving rejection does not wait).
  const Client::SolveReply rejected =
      rig.client.solve(node_request(2, 11, {8}), false);
  EXPECT_EQ(rejected.status, WireStatus::kShuttingDown);

  in_flight.join();
  rig.server->wait();
  EXPECT_TRUE(rig.server->stopped());
  EXPECT_GE(rig.server->stats().shutdown_rejects, 1u);

  // A fresh connect must fail: the listener is gone.
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", rig.server->port()), TransportError);
}

TEST(NetServer, GarbageStreamClosesThatConnectionOnly) {
  Rig rig;
  {
    // Raw socket speaking garbage: the server must drop it...
    RawConn garbage(rig.server->port());
    ASSERT_TRUE(garbage.connected());
    const std::string_view junk = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(garbage.send(
        {reinterpret_cast<const std::uint8_t*>(junk.data()), junk.size()}));
    EXPECT_TRUE(garbage.read_frame().empty())  // blocks until close
        << "server should close a garbage connection";
  }

  // ...while a well-behaved connection on the same server keeps working.
  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 11, {3}), false);
  EXPECT_EQ(reply.status, WireStatus::kOk) << reply.message;
  EXPECT_GE(rig.server->stats().bad_frames, 1u);
}

TEST(NetServer, TruncatedPayloadWithValidHeaderAnswersBadFrame) {
  Rig rig;
  // Hand-build a kSolve frame whose payload is one lonely byte: the header
  // frames fine, the payload does not decode — the server must answer
  // kBadFrame and keep the connection.
  {
    RawConn raw(rig.server->port());
    ASSERT_TRUE(raw.connected());
    const std::uint8_t lonely = 0x5a;
    ASSERT_TRUE(raw.send(request_frame(Op::kSolve, 9, {&lonely, 1})));
    const std::vector<std::uint8_t> frame = raw.read_frame();
    FrameError err = FrameError::kNone;
    const auto header = decode_header(frame, &err);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->opcode, static_cast<std::uint8_t>(Op::kSolve) | kReplyBit);
    EXPECT_EQ(header->request_id, 9u);
    EXPECT_EQ(static_cast<WireStatus>(frame.at(kHeaderSize)),
              WireStatus::kBadFrame);
  }

  const Client::SolveReply reply =
      rig.client.solve(node_request(2, 11, {3}), false);
  EXPECT_EQ(reply.status, WireStatus::kOk);
}

TEST(NetServer, StatsOpReportsServerAndSessionCounters) {
  Rig rig;
  ASSERT_EQ(rig.client.solve(node_request(2, 11, {1}), false).status,
            WireStatus::kOk);
  Client::StatsReply before = rig.client.stats();
  ASSERT_EQ(before.status, WireStatus::kOk) << before.message;
  EXPECT_FALSE(before.stats.has_session);
  EXPECT_GE(before.stats.server.solves, 1u);
  EXPECT_GE(before.stats.server.frames_in, 2u);
  EXPECT_EQ(before.stats.engine.serve.queries, 1u);
  EXPECT_FALSE(before.stats.server.draining);

  ASSERT_EQ(rig.client.configure_session(2, 11, FaultKind::kNode).status,
            WireStatus::kOk);
  ASSERT_EQ(rig.client.add_fault(FaultKind::kNode, 77).status, WireStatus::kOk);
  ASSERT_EQ(rig.client.session_solve(false).status, WireStatus::kOk);
  const Client::StatsReply after = rig.client.stats();
  ASSERT_EQ(after.status, WireStatus::kOk);
  EXPECT_TRUE(after.stats.has_session);
  EXPECT_GE(after.stats.session.solves, 1u);
  EXPECT_GE(after.stats.server.solves, 2u);
}

// --- result-cache hits answered on the event loop ---------------------------

TEST(NetServerHitPath, LoopHitIsByteIdenticalToPoolHitAndInProcessAnswer) {
  ServerOptions opts;
  opts.workers = 1;
  opts.debug_solve_delay_ms = 30.0;  // holds the cold miss in flight
  Rig rig(opts);
  const EmbedRequest hot = node_request(2, 11, {5, 99, 1234});
  rig.engine->query(hot);  // fills the result cache
  const EmbedResponse local = rig.engine->query(hot);
  ASSERT_TRUE(local.cache_hit);

  RawConn conn(rig.server->port());
  ASSERT_TRUE(conn.connected());
  // Behind a miss in flight, the hit ships to a worker with it...
  std::vector<std::uint8_t> burst = solve_frame(1, node_request(2, 11, {7}), false);
  const std::vector<std::uint8_t> hit = solve_frame(2, hot, true);
  burst.insert(burst.end(), hit.begin(), hit.end());
  ASSERT_TRUE(conn.send(burst));
  EXPECT_FALSE(decode_solve_reply(conn.read_frame()).cache_hit);
  std::vector<std::uint8_t> pool_served = conn.read_frame();
  // ...and alone on an idle connection it is answered on the loop.
  ASSERT_TRUE(conn.send(hit));
  std::vector<std::uint8_t> loop_served = conn.read_frame();

  std::vector<std::uint8_t> in_process;
  encode_header(in_process, static_cast<std::uint8_t>(Op::kSolve) | kReplyBit,
                2, 0);
  WireWriter w(in_process);
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  encode_embed(w, local, /*want_ring=*/true);
  patch_payload_len(in_process, 0);

  const WireEmbed served = decode_solve_reply(loop_served);
  EXPECT_TRUE(served.cache_hit);
  EXPECT_EQ(served.ring, local.result->ring.nodes);
  zero_latency(pool_served);
  zero_latency(loop_served);
  zero_latency(in_process);
  EXPECT_EQ(loop_served, pool_served);
  EXPECT_EQ(loop_served, in_process);
}

TEST(NetServerHitPath, MixedPipelineRepliesInRequestOrder) {
  ServerOptions opts;
  opts.workers = 2;
  opts.debug_solve_delay_ms = 20.0;  // the miss stays in flight
  Rig rig(opts);
  const EmbedRequest hot = node_request(2, 11, {3});
  rig.engine->query(hot);

  // [cold miss, hit, hit, session op, hit] in one write.
  std::vector<std::uint8_t> config;
  WireWriter w(config);
  w.u32(2);
  w.u32(11);
  w.u8(static_cast<std::uint8_t>(FaultKind::kNode));
  w.u8(static_cast<std::uint8_t>(Strategy::kAuto));
  w.u16(0);
  const std::vector<std::vector<std::uint8_t>> frames = {
      solve_frame(1, node_request(2, 11, {9}), false),
      solve_frame(2, hot, false),
      solve_frame(3, hot, false),
      request_frame(Op::kSessionConfig, 4, config),
      solve_frame(5, hot, false),
  };
  std::vector<std::uint8_t> burst;
  for (const auto& f : frames) burst.insert(burst.end(), f.begin(), f.end());
  RawConn conn(rig.server->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.send(burst));

  for (std::uint32_t id = 1; id <= frames.size(); ++id) {
    const std::vector<std::uint8_t> reply = conn.read_frame();
    FrameError err = FrameError::kNone;
    const auto header = decode_header(reply, &err);
    ASSERT_TRUE(header.has_value()) << "id=" << id;
    EXPECT_EQ(header->request_id, id);
    EXPECT_EQ(static_cast<WireStatus>(reply.at(kHeaderSize)), WireStatus::kOk)
        << "id=" << id;
    if (id == 4) {
      EXPECT_EQ(header->opcode,
                static_cast<std::uint8_t>(Op::kSessionConfig) | kReplyBit);
      continue;
    }
    EXPECT_EQ(decode_solve_reply(reply).cache_hit, id != 1) << "id=" << id;
  }
  // With the backlog drained, the same hit is answered on the loop.
  ASSERT_TRUE(conn.send(solve_frame(6, hot, false)));
  EXPECT_TRUE(decode_solve_reply(conn.read_frame()).cache_hit);
}

TEST(NetServerHitPath, EachSolveIsProbedAndCountedOnce) {
  Rig rig;
  constexpr std::uint64_t kDistinct = 6;
  for (int pass = 0; pass < 2; ++pass) {
    for (Word f = 1; f <= kDistinct; ++f) {
      const Client::SolveReply reply =
          rig.client.solve(node_request(2, 11, {f * 17}), false);
      ASSERT_EQ(reply.status, WireStatus::kOk) << reply.message;
      EXPECT_EQ(reply.embed.cache_hit, pass == 1);
    }
  }
  const Client::StatsReply stats = rig.client.stats();
  ASSERT_EQ(stats.status, WireStatus::kOk);
  // A miss probed on the loop and again on the worker would count twice.
  EXPECT_EQ(stats.stats.engine.serve.queries, 2 * kDistinct);
  EXPECT_EQ(stats.stats.engine.serve.result_hits, kDistinct);
  EXPECT_EQ(stats.stats.engine.cache.hits, kDistinct);
  EXPECT_EQ(stats.stats.engine.cache.misses, kDistinct);
  EXPECT_EQ(stats.stats.server.solves, 2 * kDistinct);
}

TEST(NetServerHitPath, HitUnderRequestTimeoutAnswersOk) {
  ServerOptions opts;
  opts.workers = 1;
  opts.request_timeout_ms = 10.0;
  opts.debug_solve_delay_ms = 50.0;  // every worker solve overruns
  Rig rig(opts);
  const EmbedRequest hot = node_request(2, 11, {21});
  rig.engine->query(hot);

  const Client::SolveReply hit = rig.client.solve(hot, false);
  ASSERT_EQ(hit.status, WireStatus::kOk) << hit.message;
  EXPECT_TRUE(hit.embed.cache_hit);
  // A miss still goes to the delayed worker and times out.
  EXPECT_EQ(rig.client.solve(node_request(2, 11, {22}), false).status,
            WireStatus::kTimeout);
}

TEST(NetServer, NeverReadingClientIsHeldAtTheOutputCap) {
  Rig rig;
  const EmbedRequest ring_request = node_request(2, 12, {5});
  const EmbedResponse local = rig.engine->query(ring_request);
  ASSERT_EQ(local.result->status, EmbedStatus::kOk);

  // 4000 cached solves whose ~32 KiB ring replies total 128 MiB unbounded.
  constexpr std::uint32_t kSolves = 4000;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t id = 1; id <= kSolves; ++id) {
    const std::vector<std::uint8_t> f = solve_frame(id, ring_request, true);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  RawConn conn(rig.server->port());
  ASSERT_TRUE(conn.connected());
  const long rss_before = rss_kib();
  std::thread writer([&] { EXPECT_TRUE(conn.send(burst)); });

  // Let the server take all it will: wait until it stops reading frames.
  long rss_peak = rss_before;
  std::uint64_t frames_in = 0;
  for (int still = 0; still < 10;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rss_peak = std::max(rss_peak, rss_kib());
    const std::uint64_t now = rig.server->stats().frames_in;
    still = now == frames_in ? still + 1 : 0;
    frames_in = now;
  }
  EXPECT_LT(frames_in, kSolves) << "the server kept reading a peer that never reads";
  constexpr long kBoundKib = 32 * 1024;
  EXPECT_LT(rss_peak - rss_before, kBoundKib)
      << "RSS grew by " << (rss_peak - rss_before) << " KiB";

  // The same client now reads every reply, in order.
  for (std::uint32_t id = 1; id <= kSolves; ++id) {
    const std::vector<std::uint8_t> reply = conn.read_frame();
    FrameError err = FrameError::kNone;
    const auto header = decode_header(reply, &err);
    ASSERT_TRUE(header.has_value()) << "id=" << id;
    ASSERT_EQ(header->request_id, id);
    const WireEmbed embed = decode_solve_reply(reply);
    ASSERT_EQ(embed.ring, local.result->ring.nodes) << "id=" << id;
  }
  writer.join();
}

/// CPU seconds this process (server threads and test alike) has used.
double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Lowers this process's soft RLIMIT_NOFILE to a few descriptors above the
/// highest one open, and restores the old limit (closing the spare
/// descriptors it handed out) when it goes out of scope.
class FdLimit {
 public:
  explicit FdLimit(int headroom) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    int highest = 2;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
      highest = std::max(highest, std::stoi(entry.path().filename().string()));
    }
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(highest + 1 + headroom);
    lowered_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~FdLimit() {
    for (int fd : spares_) ::close(fd);
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdLimit(const FdLimit&) = delete;
  FdLimit& operator=(const FdLimit&) = delete;

  bool lowered() const { return lowered_; }

  /// Takes every free descriptor under the limit; true when the last
  /// attempt failed with EMFILE, i.e. the process is at its limit.
  bool exhaust() {
    for (;;) {
      const int fd = ::eventfd(0, EFD_CLOEXEC);
      if (fd < 0) return errno == EMFILE;
      spares_.push_back(fd);
    }
  }
  /// Frees one descriptor taken by exhaust().
  void release_one() {
    ::close(spares_.back());
    spares_.pop_back();
  }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  std::vector<int> spares_;
};

TEST(NetServer, AcceptAtTheDescriptorLimitWaitsWithoutSpinning) {
  Rig rig;
  const EmbedRequest req = node_request(2, 10, {7});
  ASSERT_EQ(rig.client.solve(req, false).status, WireStatus::kOk);
  const std::uint64_t accepted_before = rig.server->stats().accepted;
  {
    FdLimit limit(/*headroom=*/8);
    ASSERT_TRUE(limit.lowered());
    ASSERT_TRUE(limit.exhaust());
    limit.release_one();
    // The client socket takes the last descriptor; the handshake completes
    // in the listen backlog, and the server's accept fails with EMFILE.
    RawConn waiting(rig.server->port());
    ASSERT_TRUE(waiting.connected());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(rig.server->stats().accepted, accepted_before);

    const double cpu_before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double cpu_used = process_cpu_seconds() - cpu_before;
    EXPECT_LT(cpu_used, 0.1) << "the event loop spun on the unacceptable peer";

    // Closing a connection frees descriptors on both ends; the server then
    // accepts the waiting peer, which gets its answer.
    rig.client.close();
    ASSERT_TRUE(waiting.send(solve_frame(1, req, false)));
    const std::vector<std::uint8_t> reply = waiting.read_frame();
    const WireEmbed embed = decode_solve_reply(reply);
    EXPECT_EQ(embed.status, EmbedStatus::kOk);
    EXPECT_EQ(rig.server->stats().accepted, accepted_before + 1);
  }
}

}  // namespace
}  // namespace dbr::net
