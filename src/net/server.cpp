#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "service/session.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace dbr::net {

namespace {

using Clock = std::chrono::steady_clock;

// epoll user-data ids for the two non-connection fds.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;

/// Unflushed reply bytes beyond which a connection stops reading requests
/// until its peer drains them below this again. One B(2,15) ring reply is
/// 256 KiB, so the cap holds a few of the largest common replies.
constexpr std::size_t kMaxUnflushedReplyBytes = std::size_t{1} << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

/// How admission control classified an op the moment its frame arrived.
/// The classification is decided on the loop thread (so the queue bound is
/// exact) but the reply is emitted by the worker in FIFO position, so
/// responses never reorder within a connection.
enum class Admission : std::uint8_t {
  kAdmitted,    ///< execute normally
  kOverloaded,  ///< reply kOverloaded (queue bound reached on arrival)
  kShutdown,    ///< reply kShuttingDown (arrived while draining)
  kBadOp,       ///< reply kBadFrame (unknown opcode)
};

struct Server::OpItem {
  std::uint8_t opcode = 0;
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> payload;
  Admission admission = Admission::kAdmitted;
  bool is_solve = false;
  bool has_deadline = false;
  Clock::time_point deadline{};
  /// A kSolve whose loop-thread probe missed: its canonical key and ring
  /// flag, so the worker computes without decoding or probing again.
  std::optional<service::CacheKey> missed_key;
  bool want_ring = true;

  bool expired() const {
    // >= : a reply landing exactly at the deadline is already late, and a
    // coarse clock tick would otherwise let a 1 ms budget never expire.
    return has_deadline && Clock::now() >= deadline;
  }
};

struct Server::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  FrameParser parser;
  /// Ops decoded but not yet shipped to a worker. Loop-owned.
  std::deque<OpItem> ops;
  bool task_in_flight = false;
  /// Pending reply bytes; woff_ is the flushed prefix.
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  std::uint32_t armed = EPOLLIN;  ///< epoll events currently armed
  /// Reading stopped at the output cap; frames may wait in `parser`.
  bool read_paused = false;
  bool read_closed = false;  ///< EOF, read error, or unframeable stream
  bool broken = false;       ///< socket unusable; discard pending writes

  // --- worker-owned while a task is in flight -----------------------------
  bool session_configured = false;
  Digit cfg_base = 0;
  unsigned cfg_n = 0;
  service::FaultKind cfg_kind = service::FaultKind::kNode;
  service::Strategy cfg_strategy = service::Strategy::kAuto;
  std::unique_ptr<service::EmbedSession> session;
};

struct Server::Task {
  Connection* conn = nullptr;
  std::vector<OpItem> ops;
};

struct Server::Completion {
  std::uint64_t conn_id = 0;
  std::vector<std::uint8_t> bytes;
};

/// One reply frame encoded in place at the end of an output buffer: a
/// worker task's, or a connection's wbuf for a hit answered on the loop.
/// The header goes first with a zero length, the payload is appended behind
/// it, and finish() patches the length — no temporary payload vector and no
/// copy. This is the server's only reply encoder.
class Server::Reply {
 public:
  Reply(Server& server, std::vector<std::uint8_t>& out, const OpItem& op)
      : server_(server), out_(out), start_(out.size()), writer_(out) {
    encode_header(out, op.opcode | kReplyBit, op.request_id, 0);
  }

  /// Writes the kOk status byte; the caller appends the body.
  WireWriter& ok() {
    writer_.u8(static_cast<std::uint8_t>(WireStatus::kOk));
    return writer_;
  }

  /// Replaces whatever payload was written with `status` and `message`.
  void error(WireStatus status, std::string_view message) {
    out_.resize(start_ + kHeaderSize);
    writer_.u8(static_cast<std::uint8_t>(status));
    writer_.str(message);
  }

  /// Patches the payload length: the frame is complete.
  void finish() {
    patch_payload_len(out_, start_);
    server_.frames_out_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Server& server_;
  std::vector<std::uint8_t>& out_;
  std::size_t start_;
  WireWriter writer_;
};

Server::Server(service::EmbedEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = worker_count();
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire) && !stopped()) stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  require(!started_.exchange(true), "Server::start may be called once");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad bind address: " + options_.bind_address);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    throw_errno("bind " + options_.bind_address + ":" +
                std::to_string(options_.port));
  if (::listen(listen_fd_, 512) < 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0)
    throw_errno("getsockname");
  port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0)
    throw_errno("epoll_ctl(listener)");
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0)
    throw_errno("epoll_ctl(eventfd)");

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_main(); });
  loop_thread_ = std::thread([this] { loop(); });
}

void Server::drain() {
  draining_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::wait() {
  require(started_.load(std::memory_order_acquire),
          "Server::wait before start");
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  stopped_.store(true, std::memory_order_release);
}

void Server::stop() {
  drain();
  wait();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.connections = open_conns_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.solves = solves_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.shutdown_rejects = shutdown_rejects_.load(std::memory_order_relaxed);
  s.draining = draining_.load(std::memory_order_relaxed);
  return s;
}

// --- event loop -------------------------------------------------------------

void Server::loop() {
  bool listener_open = true;
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; fall through to shutdown
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        accept_ready();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        handle_completions();
        continue;
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed while events were pending
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        conn.broken = true;
        conn.read_closed = true;
        conn.wbuf.clear();
        conn.woff = 0;
      } else {
        if (events[i].events & EPOLLOUT) flush(conn);
        // A connection paused at the output cap resumes once the flush
        // made room; its backlog may sit in the parser with no new bytes.
        if ((events[i].events & EPOLLIN) || conn.read_paused)
          connection_readable(conn);
      }
      // The connection may now be closable (EOF + nothing pending).
      if ((conn.read_closed || conn.broken) && !conn.task_in_flight &&
          conn.ops.empty() && conn.woff >= conn.wbuf.size()) {
        close_connection(conn.id);
      }
    }
    if (draining_.load(std::memory_order_acquire)) {
      if (listener_open) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
        listener_open = false;
      }
      bool busy = false;
      for (const auto& [id, conn] : conns_) {
        if (conn->task_in_flight || !conn->ops.empty() ||
            conn->woff < conn->wbuf.size()) {
          busy = true;
          break;
        }
      }
      if (!busy) break;  // drained: every admitted op finished and flushed
    }
  }

  // Shutdown: close every connection, then stop the worker pool.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (std::uint64_t id : ids) close_connection(id);
  {
    const util::MutexLock lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
}

void Server::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: the peer waits in the backlog, and the
        // level-triggered listener would report it again at once, spinning
        // the loop. Disarm it until close_connection frees a descriptor.
        epoll_event ev{};
        ev.data.u64 = kListenerTag;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
        accept_paused_ = true;
      }
      return;  // EAGAIN/EINTR, or a transient failure: the listener stays armed
    }
    if (draining_.load(std::memory_order_relaxed) ||
        conns_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::connection_readable(Connection& conn) {
  conn.read_paused = false;
  if (conn.read_closed) return;
  std::uint8_t buf[64 * 1024];
  // Frames already buffered go first: a connection resuming from the
  // output cap still holds its backlog in the parser.
  while (parse_frames(conn)) {
    const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r > 0) {
      conn.parser.feed(std::span<const std::uint8_t>(
          buf, static_cast<std::size_t>(r)));
      continue;
    }
    if (r == 0) {  // EOF: the client is done sending; flush and close
      conn.read_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.broken = true;
    conn.read_closed = true;
    conn.wbuf.clear();
    conn.woff = 0;
    break;
  }
  flush(conn);  // one flush for every hit answered on the loop
}

bool Server::parse_frames(Connection& conn) {
  Frame frame;
  for (;;) {
    if (conn.wbuf.size() - conn.woff > kMaxUnflushedReplyBytes) {
      flush(conn);  // the peer may have read meanwhile: make room first
      if (conn.read_closed) return false;  // the flush broke the socket
      if (conn.wbuf.size() - conn.woff > kMaxUnflushedReplyBytes) {
        conn.read_paused = true;  // flush() disarms EPOLLIN until drained
        return false;
      }
    }
    switch (conn.parser.next(&frame)) {
      case FrameParser::Result::kNeedMore:
        return true;
      case FrameParser::Result::kError:
        // The stream can no longer be framed (bad magic / version / flags
        // / absurd length): stop reading, flush what we owe, then close.
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        conn.read_closed = true;
        return false;
      case FrameParser::Result::kFrame:
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        enqueue_frame(conn, std::move(frame));
        break;
    }
  }
}

void Server::enqueue_frame(Connection& conn, Frame frame) {
  OpItem op;
  op.opcode = frame.header.opcode;
  op.request_id = frame.header.request_id;
  op.payload = std::move(frame.payload);
  if (!valid_op(op.opcode)) {
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
    op.admission = Admission::kBadOp;
  } else {
    const Op opcode = static_cast<Op>(op.opcode);
    op.is_solve = opcode == Op::kSolve || opcode == Op::kSessionSolve;
    if (draining_.load(std::memory_order_relaxed)) {
      shutdown_rejects_.fetch_add(1, std::memory_order_relaxed);
      op.admission = Admission::kShutdown;
    } else if (op.is_solve) {
      // Admission control: the bound counts admitted solves not yet
      // finished, so a burst beyond `max_pending` bounces immediately
      // instead of growing an unbounded queue.
      if (pending_solves_.load(std::memory_order_relaxed) >=
          options_.max_pending) {
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        op.admission = Admission::kOverloaded;
      } else {
        pending_solves_.fetch_add(1, std::memory_order_relaxed);
        if (options_.request_timeout_ms > 0) {
          op.has_deadline = true;
          op.deadline = Clock::now() + std::chrono::duration_cast<
                                           Clock::duration>(
                                           std::chrono::duration<double,
                                                                 std::milli>(
                                               options_.request_timeout_ms));
        }
      }
    }
  }
  // Only with nothing ahead of it on the connection may a reply leave from
  // the loop: FIFO order per connection is the wire contract.
  if (op.admission == Admission::kAdmitted &&
      op.opcode == static_cast<std::uint8_t>(Op::kSolve) &&
      !conn.task_in_flight && conn.ops.empty() && answer_on_loop(conn, op)) {
    return;
  }
  conn.ops.push_back(std::move(op));
  schedule(conn);
}

bool Server::answer_on_loop(Connection& conn, OpItem& op) {
  service::EmbedRequest request;
  // A malformed payload goes to the worker, which answers kBadFrame.
  if (!decode_request(op.payload, &request, &op.want_ring)) return false;
  op.missed_key = service::canonical_key(request);
  const std::optional<service::EmbedResponse> hit = engine_.probe(*op.missed_key);
  if (!hit) return false;
  Reply reply(*this, conn.wbuf, op);
  finish_solve(reply, op, *hit, op.want_ring);
  pending_solves_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void Server::schedule(Connection& conn) {
  if (conn.task_in_flight || conn.ops.empty()) return;
  Task task;
  task.conn = &conn;
  task.ops.assign(std::make_move_iterator(conn.ops.begin()),
                  std::make_move_iterator(conn.ops.end()));
  conn.ops.clear();
  conn.task_in_flight = true;
  {
    const util::MutexLock lock(pool_mu_);
    task_queue_.push_back(std::move(task));
  }
  pool_cv_.notify_one();
}

void Server::flush(Connection& conn) {
  if (conn.broken) {
    conn.wbuf.clear();
    conn.woff = 0;
    return;
  }
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t w = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (w > 0) {
      conn.woff += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    conn.broken = true;
    conn.read_closed = true;
    conn.wbuf.clear();
    conn.woff = 0;
    break;
  }
  if (conn.woff >= conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.woff = 0;
  } else if (conn.woff > conn.wbuf.size() / 2) {
    // Drop the sent prefix once it is the larger part, so a peer that never
    // quite catches up cannot grow wbuf past about twice the output cap.
    conn.wbuf.erase(conn.wbuf.begin(),
                    conn.wbuf.begin() + static_cast<std::ptrdiff_t>(conn.woff));
    conn.woff = 0;
  }
  update_epoll(conn);
}

void Server::update_epoll(Connection& conn) {
  if (conn.broken || conn.fd < 0) return;
  const std::uint32_t want = (conn.read_paused ? 0u : EPOLLIN) |
                             (conn.woff < conn.wbuf.size() ? EPOLLOUT : 0u);
  if (want == conn.armed) return;
  conn.armed = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::close_connection(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (conn.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    if (accept_paused_ && listen_fd_ >= 0) {  // a descriptor is free again
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerTag;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
      accept_paused_ = false;
    }
  }
  conn.broken = true;
  // Dropped ops must release their admission slots.
  for (OpItem& op : conn.ops) {
    if (op.is_solve && op.admission == Admission::kAdmitted)
      pending_solves_.fetch_sub(1, std::memory_order_relaxed);
  }
  conn.ops.clear();
  conn.wbuf.clear();
  conn.woff = 0;
  // A worker may still hold a pointer to this connection; defer the erase
  // to the completion handler.
  if (!conn.task_in_flight) conns_.erase(it);
}

void Server::handle_completions() {
  std::vector<Completion> done;
  {
    const util::MutexLock lock(completion_mu_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    const auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    conn.task_in_flight = false;
    if (conn.broken) {
      if (conn.fd < 0) {
        conns_.erase(it);
        continue;
      }
    } else {
      if (conn.wbuf.empty()) {
        conn.wbuf = std::move(c.bytes);
        conn.woff = 0;
      } else {
        conn.wbuf.insert(conn.wbuf.end(), c.bytes.begin(), c.bytes.end());
      }
      flush(conn);
    }
    if (!conn.ops.empty()) schedule(conn);
    // The flush may have drained a connection paused at the output cap
    // without any socket event left to resume it.
    if (conn.read_paused) connection_readable(conn);
    if ((conn.read_closed || conn.broken) && !conn.task_in_flight &&
        conn.ops.empty() && conn.woff >= conn.wbuf.size()) {
      close_connection(conn.id);
    }
  }
}

// --- worker side ------------------------------------------------------------

void Server::worker_main() {
  for (;;) {
    Task task;
    {
      util::UniqueLock lock(pool_mu_);
      // While-loop (not a wait predicate): the condition reads then happen
      // directly under the held capability, where the analysis checks them.
      while (!pool_stop_ && task_queue_.empty()) pool_cv_.wait(lock);
      if (task_queue_.empty()) {
        if (pool_stop_) return;
        continue;
      }
      task = std::move(task_queue_.front());
      task_queue_.pop_front();
    }
    Completion completion;
    completion.conn_id = task.conn->id;
    completion.bytes = execute(task);
    bool first = false;
    {
      const util::MutexLock lock(completion_mu_);
      first = completions_.empty();
      completions_.push_back(std::move(completion));
    }
    // One wake per drain: the loop swaps out the whole queue, so only the
    // push that found it empty owes a wake; later pushes ride on that one.
    if (first) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    }
  }
}

std::vector<std::uint8_t> Server::execute(Task& task) {
  std::vector<std::uint8_t> out;
  for (OpItem& op : task.ops) execute_op(*task.conn, op, out);
  return out;
}

void Server::execute_op(Connection& conn, OpItem& op,
                        std::vector<std::uint8_t>& out) {
  Reply reply(*this, out, op);
  const auto error_reply = [&](WireStatus status, std::string_view message) {
    reply.error(status, message);
    reply.finish();
  };

  switch (op.admission) {
    case Admission::kBadOp:
      error_reply(WireStatus::kBadFrame, "unknown opcode");
      return;
    case Admission::kShutdown:
      error_reply(WireStatus::kShuttingDown, "server is draining");
      return;
    case Admission::kOverloaded:
      error_reply(WireStatus::kOverloaded, "pending solve queue is full");
      return;
    case Admission::kAdmitted:
      break;
  }

  // Admitted: release the admission slot once this op is done, whatever
  // the outcome (executed, timed out, malformed).
  struct SlotGuard {
    Server* server;
    bool active;
    ~SlotGuard() {
      if (active)
        server->pending_solves_.fetch_sub(1, std::memory_order_relaxed);
    }
  } slot{this, op.is_solve};

  if (op.is_solve) {
    if (options_.debug_solve_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.debug_solve_delay_ms));
    }
    if (op.expired()) {  // spent its deadline waiting in the queue
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      error_reply(WireStatus::kTimeout, "request expired in queue");
      return;
    }
  }

  WireReader r(op.payload);
  try {
    switch (static_cast<Op>(op.opcode)) {
      case Op::kSolve: {
        if (op.missed_key) {  // decoded and probed on the loop already
          finish_solve(reply, op, engine_.compute_and_fill(*op.missed_key),
                       op.want_ring);
          return;
        }
        service::EmbedRequest request;
        bool want_ring = true;
        if (!decode_request(op.payload, &request, &want_ring)) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          error_reply(WireStatus::kBadFrame, "malformed solve payload");
          return;
        }
        finish_solve(reply, op, engine_.query(request), want_ring);
        return;
      }
      case Op::kSessionConfig: {
        const std::uint32_t base = r.u32();
        const std::uint32_t n = r.u32();
        const std::uint8_t kind = r.u8();
        const std::uint8_t strategy = r.u8();
        r.u16();  // reserved
        if (!r.exhausted() ||
            kind > static_cast<std::uint8_t>(service::FaultKind::kMixed) ||
            strategy > static_cast<std::uint8_t>(service::Strategy::kMixed)) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          error_reply(WireStatus::kBadFrame, "malformed session config");
          return;
        }
        // Reconfiguring drops the old session (its fault timeline ends);
        // the new one is created lazily by the next session op.
        conn.session.reset();
        conn.cfg_base = static_cast<Digit>(base);
        conn.cfg_n = n;
        conn.cfg_kind = static_cast<service::FaultKind>(kind);
        conn.cfg_strategy = static_cast<service::Strategy>(strategy);
        conn.session_configured = true;
        reply.ok();
        reply.finish();
        return;
      }
      case Op::kFaultAdd:
      case Op::kFaultRemove: {
        const std::uint8_t kind = r.u8();
        const Word word = r.u64();
        if (!r.exhausted() ||
            kind > static_cast<std::uint8_t>(service::FaultKind::kEdge)) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          error_reply(WireStatus::kBadFrame, "malformed fault op");
          return;
        }
        if (!conn.session_configured) {
          error_reply(WireStatus::kNoSession,
                      "session op before session config");
          return;
        }
        if (!conn.session) {
          conn.session = std::make_unique<service::EmbedSession>(
              engine_, conn.cfg_base, conn.cfg_n, conn.cfg_kind,
              conn.cfg_strategy);
        }
        const service::FaultKind fk = static_cast<service::FaultKind>(kind);
        const bool changed = static_cast<Op>(op.opcode) == Op::kFaultAdd
                                 ? conn.session->add_fault(fk, word)
                                 : conn.session->clear_fault(fk, word);
        reply.ok().u8(changed ? 1 : 0);
        reply.finish();
        return;
      }
      case Op::kFaultReset: {
        if (!r.exhausted()) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          error_reply(WireStatus::kBadFrame, "fault reset takes no payload");
          return;
        }
        if (!conn.session_configured) {
          error_reply(WireStatus::kNoSession,
                      "session op before session config");
          return;
        }
        if (conn.session) conn.session->reset_faults();
        reply.ok();
        reply.finish();
        return;
      }
      case Op::kSessionSolve: {
        const std::uint8_t ring = r.u8();
        if (!r.exhausted() || ring > 1) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          error_reply(WireStatus::kBadFrame, "malformed session solve");
          return;
        }
        if (!conn.session_configured) {
          error_reply(WireStatus::kNoSession,
                      "session op before session config");
          return;
        }
        if (!conn.session) {
          conn.session = std::make_unique<service::EmbedSession>(
              engine_, conn.cfg_base, conn.cfg_n, conn.cfg_kind,
              conn.cfg_strategy);
        }
        finish_solve(reply, op, conn.session->current_ring(), ring != 0);
        return;
      }
      case Op::kStats: {
        if (!r.exhausted()) {
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          error_reply(WireStatus::kBadFrame, "stats takes no payload");
          return;
        }
        WireStats stats;
        stats.engine = engine_.stats_snapshot();
        const ServerStats s = this->stats();
        stats.server.accepted = s.accepted;
        stats.server.connections = s.connections;
        stats.server.frames_in = s.frames_in;
        stats.server.frames_out = s.frames_out;
        stats.server.solves = s.solves;
        stats.server.overloaded = s.overloaded;
        stats.server.timeouts = s.timeouts;
        stats.server.bad_frames = s.bad_frames;
        stats.server.shutdown_rejects = s.shutdown_rejects;
        stats.server.draining = s.draining;
        if (conn.session) {
          stats.has_session = true;
          stats.session = conn.session->stats();
          stats.repair = conn.session->repair_stats();
        }
        encode_stats(reply.ok(), stats);
        reply.finish();
        return;
      }
    }
    error_reply(WireStatus::kBadFrame, "unknown opcode");
  } catch (const precondition_error& e) {
    error_reply(WireStatus::kBadRequest, e.what());
  } catch (const std::exception& e) {
    error_reply(WireStatus::kInternal, e.what());
  }
}

void Server::finish_solve(Reply& reply, const OpItem& op,
                          const service::EmbedResponse& response,
                          bool want_ring) {
  solves_.fetch_add(1, std::memory_order_relaxed);
  encode_embed(reply.ok(), response, want_ring);
  // The deadline is enforced as the reply is encoded: encoding a large ring
  // can itself overrun a tight budget, and what the client observes is when
  // the reply is enqueued, not when the solve finished.
  if (op.expired()) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    reply.error(WireStatus::kTimeout, "solve exceeded the deadline");
  }
  reply.finish();
}

}  // namespace dbr::net
