#pragma once

/// \file
/// net::Server — the TCP front-end of the embedding query engine.
///
/// Layering (the DAOS client/cart/engine split, scaled to one process):
///
///   net::Client ── TCP ──> epoll event loop ──────> worker pool ──> EmbedEngine
///        (wire.hpp frames)   (frame I/O, cached       (misses,        (service/)
///                             stateless solves)        session ops)
///
/// One nonblocking epoll loop thread owns the listener and every
/// connection's socket, read buffer and write buffer; it parses frames
/// (net/wire.hpp) and enqueues ops per connection. A stateless kSolve with
/// nothing ahead of it on its connection is decoded, canonicalized and
/// probed against the engine's result cache right on the loop (one O(1)
/// lookup under a shard mutex that fills also hold only for O(1) work):
/// a hit is encoded straight into the write buffer and never leaves the
/// loop thread. Everything else — result-cache misses (which carry their
/// decoded CacheKey, so the worker neither decodes nor probes again),
/// session ops, STATS, and any op queued behind in-flight work — executes
/// on a small worker pool, strictly in order within one connection (an
/// EmbedSession is single-threaded state) and concurrently across
/// connections: while one connection's task is in flight its later ops
/// queue up and ship as the next task, so a pipelining client amortizes
/// the loop<->pool handoff over whole bursts. Workers never touch sockets;
/// they post encoded reply bytes back through a completion queue, waking
/// the loop through an eventfd once per drain of that queue.
///
/// Production concerns are first-class states of the loop, not add-ons:
///  * admission control — solve ops beyond `max_pending` are answered
///    kOverloaded immediately (decided at admission, delivered in FIFO
///    order, so replies never reorder within a connection);
///  * per-request timeouts — an op past its deadline answers kTimeout, both
///    when it expires while queued and when the solve itself overruns;
///  * bounded output — while a connection's unflushed reply bytes exceed a
///    fixed cap, the loop stops reading its requests (EPOLLIN disarmed) and
///    resumes once the peer has drained them below the cap, so a client
///    that pipelines and never reads cannot grow server memory;
///  * graceful drain — drain() (or SIGTERM via the embed_server binary)
///    closes the listener, answers new work kShuttingDown, finishes every
///    admitted op, flushes every write buffer, then stops the loop and
///    workers; wait() returns once the drain is complete;
///  * observability — the STATS op serves EmbedEngine::stats_snapshot()
///    (one seqlock-coherent snapshot), the server's own counters, and the
///    connection's session/repair stats.
///
/// Each connection lazily owns at most one service::EmbedSession, created
/// on the first session op after kSessionConfig; stateless kSolve ops share
/// the same engine (and thus result/context caches) without a session.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"
#include "service/engine.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::net {

/// Tuning knobs of net::Server.
struct ServerOptions {
  /// Listen address (the load harness and tests use loopback).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via Server::port().
  std::uint16_t port = 0;
  /// Worker threads executing ops; 0 means dbr::worker_count() (hardware
  /// concurrency, or DBR_THREADS when set).
  std::size_t workers = 0;
  /// Admission bound: solve ops admitted (queued or executing) beyond this
  /// are rejected with WireStatus::kOverloaded. Fault/stats ops bypass the
  /// bound (they are O(1) and keep sessions inspectable under overload).
  /// A result-cache hit answered on the event loop releases its slot before
  /// the next frame is read, so loop-served hits never occupy a slot.
  std::size_t max_pending = 1024;
  /// Per-request deadline in milliseconds, measured from frame arrival.
  /// An op at or past its deadline answers kTimeout — checked when a
  /// worker dequeues it (expired in queue) and again when the encoded
  /// reply is enqueued (solve or encoding overran), so a reply never
  /// leaves after its budget. 0 disables timeouts.
  double request_timeout_ms = 0.0;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 4096;
  /// Test hook: every solve op executed on a worker sleeps this long first,
  /// making queue buildup (backpressure, queue-expiry timeouts,
  /// drain-in-flight) deterministic in tests and CI. Result-cache hits
  /// answered on the event loop are not delayed. 0 in production.
  double debug_solve_delay_ms = 0.0;
};

/// Monotonic counters of the server itself (the engine keeps its own; the
/// STATS op returns both). Mirrors wire.hpp's WireServerStats.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t connections = 0;  ///< currently open
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t solves = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t shutdown_rejects = 0;
  bool draining = false;
};

/// The epoll-driven TCP server fronting one EmbedEngine. Not copyable;
/// start() may be called once. The engine must outlive the server.
class Server {
 public:
  explicit Server(service::EmbedEngine& engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop and worker threads. Throws
  /// std::runtime_error when the socket setup fails (e.g. port in use).
  void start();

  /// The bound TCP port (resolves option port 0 to the ephemeral choice).
  /// Valid after start().
  std::uint16_t port() const { return port_; }

  /// Begins a graceful drain: stop accepting, answer new frames
  /// kShuttingDown, finish every admitted op, flush every write buffer,
  /// then stop. Callable from any thread (this is what the SIGTERM handler
  /// of examples/embed_server.cpp calls); idempotent.
  void drain();

  /// Blocks until the server has fully stopped (drain complete or stop()).
  /// start() must have been called.
  void wait();

  /// drain() and wait() in one call; the destructor runs this if needed.
  void stop();

  /// True once the loop has exited and every thread is joined.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Snapshot of the server's own counters (relaxed reads; each counter is
  /// individually accurate, the set is not a seqlock snapshot — the engine
  /// side of STATS is the coherent one).
  ServerStats stats() const;

 private:
  struct Connection;
  struct OpItem;
  struct Task;
  struct Completion;
  class Reply;

  void loop();
  void worker_main();
  void accept_ready();
  void connection_readable(Connection& conn);
  /// Hands every complete buffered frame to enqueue_frame; false (stop
  /// reading) on an unframeable stream or at the output cap.
  bool parse_frames(Connection& conn);
  void enqueue_frame(Connection& conn, Frame frame);
  /// Loop-thread result-cache probe of an admitted stateless kSolve; true
  /// when the hit was answered into conn.wbuf.
  bool answer_on_loop(Connection& conn, OpItem& op);
  void schedule(Connection& conn);
  void flush(Connection& conn);
  void close_connection(std::uint64_t id);
  void handle_completions();
  void update_epoll(Connection& conn);

  /// Executes one op batch on a worker; returns the encoded reply bytes.
  std::vector<std::uint8_t> execute(Task& task);
  void execute_op(Connection& conn, OpItem& op, std::vector<std::uint8_t>& out);
  /// Encodes a kOk solve reply, swapped for kTimeout when `op` is past its
  /// deadline once the reply is encoded.
  void finish_solve(Reply& reply, const OpItem& op,
                    const service::EmbedResponse& response, bool want_ring);

  service::EmbedEngine& engine_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completions and drain requests

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Connections are owned by the loop thread; workers only ever touch the
  // session and op fields of a connection whose task is in flight (the loop
  // leaves those alone until the completion arrives).
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  /// Connection ids double as epoll user data; 0 and 1 tag the listener and
  /// the eventfd, so connections start at 2.
  std::uint64_t next_conn_id_ = 2;
  /// The listener is disarmed because accept ran out of descriptors
  /// (EMFILE/ENFILE); close_connection re-arms it. Loop thread only.
  bool accept_paused_ = false;

  util::Mutex pool_mu_;
  util::CondVar pool_cv_;
  std::deque<Task> task_queue_ DBR_GUARDED_BY(pool_mu_);
  bool pool_stop_ DBR_GUARDED_BY(pool_mu_) = false;

  util::Mutex completion_mu_;
  std::vector<Completion> completions_ DBR_GUARDED_BY(completion_mu_);

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> pending_solves_{0};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> open_conns_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> shutdown_rejects_{0};
};

}  // namespace dbr::net
