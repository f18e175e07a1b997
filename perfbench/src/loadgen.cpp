#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <time.h>

namespace perfbench {

using dbr::net::Frame;
using dbr::net::FrameParser;
using dbr::net::Op;
using dbr::net::WireReader;
using dbr::net::WireStatus;

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

constexpr std::int64_t kSliceNs = 250'000'000;

enum class Failure : std::uint8_t { kNone, kOverloaded, kTimeout, kProtocol, kStatus, kWrong };

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  bool alive = true;
  bool want_out = false;
  std::uint32_t next_id = 1;
  FrameParser parser;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  std::deque<Pending> pending;
};

LoadGen::LoadGen(std::uint16_t port, std::size_t connections) {
  // Sub-microsecond timer slack so open-loop sleeps end on schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string err = std::strerror(errno);
      ::close(conn->fd);
      throw std::runtime_error("connect to embed_server failed: " + err);
    }
    const int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    conns_.push_back(std::move(conn));
  }
}

LoadGen::~LoadGen() {
  for (auto& c : conns_)
    if (c->fd >= 0) ::close(c->fd);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

PhaseResult LoadGen::run(Feed& feed, const Options& o) {
  PhaseResult r;
  const bool open = o.rate > 0.0;
  r.offered_rate = o.rate;
  const std::int64_t t0 = now_ns();
  const bool timed = o.seconds > 0.0;
  const std::int64_t end = timed ? t0 + static_cast<std::int64_t>(o.seconds * 1e9) : LLONG_MAX;
  const std::int64_t mid = timed ? t0 + static_cast<std::int64_t>(o.seconds * 0.5e9) : LLONG_MAX;
  const std::int64_t drain_deadline = timed ? end + static_cast<std::int64_t>(o.drain_seconds * 1e9)
                                      : t0 + static_cast<std::int64_t>(120e9);
  const double interval_ns = open ? 1e9 / o.rate : 0.0;
  std::vector<std::uint64_t> slices(
      timed ? static_cast<std::size_t>(std::ceil(o.seconds * 1e9 / kSliceNs)) : 0, 0);

  struct Unit {
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::uint64_t tag = 0;
    std::uint32_t conn = 0;
    Failure failure = Failure::kNone;
    double serve_us = 0.0;
    bool cache_hit = false, context_hit = false, repaired = false;
  };
  // Reserved or chunked up front: a reallocation mid-phase would stall the
  // generator for milliseconds at high rates.
  std::deque<Unit> units;
  const std::size_t expected =
      open ? static_cast<std::size_t>(o.rate * o.seconds * 1.1) + 64
           : (o.max_units ? o.max_units : std::size_t{1} << 17);
  r.latency_us.reserve(expected);
  r.due_s.reserve(expected);
  r.serve_us.reserve(expected);
  if (open) r.late_us.reserve(expected);
  if (o.record_units) r.units.reserve(expected);
  std::int64_t outstanding = 0;
  std::vector<FrameOut> frames;
  std::vector<std::uint8_t> rbuf(256 * 1024);
  const std::size_t k = conns_.size();

  auto set_out = [&](std::size_t c, bool want) {
    Conn& conn = *conns_[c];
    if (conn.want_out == want || !conn.alive) return;
    conn.want_out = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  auto finish = [&](Unit& u, std::int64_t done) {
    --outstanding;
    switch (u.failure) {
      case Failure::kNone: {
        ++r.ok;
        const double lat = static_cast<double>(done - u.due) / 1000.0;
        r.latency_us.push_back(lat);
        r.due_s.push_back(static_cast<double>(u.due - t0) / 1e9);
        r.serve_us.push_back(u.serve_us);
        if (timed && done >= t0 && done < end) {
          const auto s = static_cast<std::size_t>((done - t0) / kSliceNs);
          if (s < slices.size()) ++slices[s];
        }
        break;
      }
      case Failure::kOverloaded: ++r.overloaded; break;
      case Failure::kTimeout: ++r.timeouts; break;
      case Failure::kProtocol: ++r.protocol_errors; break;
      case Failure::kStatus: ++r.bad_status; break;
      case Failure::kWrong: ++r.wrong_answers; break;
    }
    if (u.failure != Failure::kNone) ++r.failed;
    if (o.record_units) {
      UnitRecord rec;
      rec.due_ns = u.due;
      rec.sent_ns = u.sent;
      rec.done_ns = done;
      rec.serve_us = u.serve_us;
      rec.tag = u.tag;
      rec.conn = u.conn;
      rec.ok = u.failure == Failure::kNone;
      rec.cache_hit = u.cache_hit;
      rec.context_hit = u.context_hit;
      rec.repaired = u.repaired;
      r.units.push_back(rec);
    }
  };

  // A broken stream poisons its connection: every unit still waiting on it
  // fails as a protocol error.
  auto kill = [&](std::size_t c) {
    Conn& conn = *conns_[c];
    if (!conn.alive) return;
    conn.alive = false;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    const std::int64_t now = now_ns();
    std::uint32_t last = UINT32_MAX;
    for (const Pending& p : conn.pending) {
      if (p.unit == last) continue;
      last = p.unit;
      units[p.unit].failure = Failure::kProtocol;
      finish(units[p.unit], now);
    }
    conn.pending.clear();
  };

  auto flush = [&](std::size_t c) {
    Conn& conn = *conns_[c];
    while (conn.alive && conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n > 0) {
        conn.woff += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_out(c, true);
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        kill(c);
        return;
      }
    }
    conn.wbuf.clear();
    conn.woff = 0;
    set_out(c, false);
  };

  auto send_unit = [&](std::size_t c, std::int64_t due) -> bool {
    Conn& conn = *conns_[c];
    frames.clear();
    std::uint64_t tag = 0;
    if (!feed.next_unit(c, frames, &tag) || frames.empty()) return false;
    const auto u = static_cast<std::uint32_t>(units.size());
    Unit unit;
    unit.due = due;
    unit.tag = tag;
    unit.conn = static_cast<std::uint32_t>(c);
    units.push_back(unit);
    ++r.attempted;
    ++outstanding;
    if (!conn.alive) {
      units[u].failure = Failure::kProtocol;
      units[u].sent = now_ns();
      finish(units[u], units[u].sent);
      return true;
    }
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::uint32_t id = conn.next_id++;
      dbr::net::encode_header(conn.wbuf, static_cast<std::uint8_t>(frames[i].op), id,
                              static_cast<std::uint32_t>(frames[i].payload.size()));
      conn.wbuf.insert(conn.wbuf.end(), frames[i].payload.begin(), frames[i].payload.end());
      conn.pending.push_back({id, frames[i].op, i + 1 == frames.size(), u});
    }
    units[u].sent = now_ns();
    if (open) r.late_us.push_back(static_cast<double>(units[u].sent - due) / 1000.0);
    flush(c);
    return true;
  };

  auto can_send_closed = [&](std::int64_t now) {
    return now < end && (o.max_units == 0 || r.attempted < o.max_units);
  };

  auto handle_frame = [&](std::size_t c, const Frame& frame) {
    Conn& conn = *conns_[c];
    if (conn.pending.empty()) {
      kill(c);
      return;
    }
    const Pending p = conn.pending.front();
    if (frame.header.request_id != p.id ||
        frame.header.opcode != (static_cast<std::uint8_t>(p.op) | dbr::net::kReplyBit)) {
      kill(c);
      return;
    }
    conn.pending.pop_front();
    Unit& u = units[p.unit];
    WireReader rd(frame.payload);
    const std::uint8_t raw = rd.u8();
    bool parsed = rd.ok() && raw <= static_cast<std::uint8_t>(WireStatus::kInternal);
    ReplyView view;
    view.op = p.op;
    view.status = static_cast<WireStatus>(raw);
    view.frame_bytes = dbr::net::kHeaderSize + frame.payload.size();
    dbr::net::WireEmbed embed;
    if (parsed && view.status == WireStatus::kOk) {
      if (p.op == Op::kSolve || p.op == Op::kSessionSolve) {
        parsed = dbr::net::decode_embed(rd, &embed);
        view.embed = &embed;
      } else if (p.op == Op::kFaultAdd || p.op == Op::kFaultRemove) {
        view.changed = rd.u8() != 0;
        parsed = rd.exhausted();
      } else {
        parsed = rd.exhausted();
      }
    }
    if (!parsed) {
      // Frame boundaries survived but the payload did not decode.
      if (u.failure == Failure::kNone) u.failure = Failure::kProtocol;
    } else if (view.status != WireStatus::kOk) {
      if (u.failure == Failure::kNone) {
        u.failure = view.status == WireStatus::kOverloaded ? Failure::kOverloaded
                    : view.status == WireStatus::kTimeout  ? Failure::kTimeout
                                                           : Failure::kStatus;
      }
    } else {
      if (view.embed != nullptr) {
        ++r.solve_replies;
        r.reply_bytes += static_cast<double>(view.frame_bytes);
        if (p.final) {
          u.serve_us = embed.latency_micros;
          u.cache_hit = embed.cache_hit;
          u.context_hit = !embed.cache_hit && embed.context_cache_hit;
          u.repaired = embed.repaired;
          if (embed.cache_hit) ++r.cache_hits;
          if (u.context_hit) ++r.context_hits;
          if (embed.repaired) ++r.repaired;
        }
      }
      if (!feed.check(c, u.tag, view) && u.failure == Failure::kNone)
        u.failure = Failure::kWrong;
    }
    if (!p.final) return;
    const std::int64_t done = now_ns();
    finish(u, done);
    if (!open && can_send_closed(done)) send_unit(c, done);
  };

  auto read_ready = [&](std::size_t c) {
    Conn& conn = *conns_[c];
    while (conn.alive) {
      const ssize_t n = ::recv(conn.fd, rbuf.data(), rbuf.size(), 0);
      if (n > 0) {
        conn.parser.feed(std::span<const std::uint8_t>(rbuf.data(), static_cast<std::size_t>(n)));
        Frame frame;
        for (;;) {
          const FrameParser::Result res = conn.parser.next(&frame);
          if (res == FrameParser::Result::kFrame) {
            handle_frame(c, frame);
            if (!conn.alive) return;
          } else if (res == FrameParser::Result::kError) {
            kill(c);
            return;
          } else {
            break;
          }
        }
        if (static_cast<std::size_t>(n) < rbuf.size()) return;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        kill(c);
        return;
      }
    }
  };

  if (!open) {
    const std::int64_t now = now_ns();
    for (std::size_t c = 0; c < k && can_send_closed(now); ++c) send_unit(c, now_ns());
  }

  std::uint64_t next_index = 0;
  std::int64_t next_due = t0;
  bool mid_seen = false;
  bool end_seen = false;
  epoll_event events[64];
  for (;;) {
    std::int64_t now = now_ns();
    if (open) {
      while (next_due <= now && next_due < end) {
        send_unit(next_index % k, next_due);
        ++next_index;
        next_due = t0 + static_cast<std::int64_t>(static_cast<double>(next_index) * interval_ns);
        now = now_ns();
      }
    }
    if (!mid_seen && now >= mid) {
      mid_seen = true;
      r.backlog_mid = outstanding;
    }
    if (!end_seen && now >= end) {
      end_seen = true;
      r.backlog_end = outstanding;
    }
    // A closed loop only sends on completions, so once nothing is in
    // flight it is finished.
    if (outstanding == 0 && (!open || next_due >= end)) break;
    if (now >= drain_deadline) {
      // Units never answered count as timeouts.
      for (std::size_t c = 0; c < k; ++c) {
        Conn& conn = *conns_[c];
        std::uint32_t last = UINT32_MAX;
        for (const Pending& p : conn.pending) {
          if (p.unit == last) continue;
          last = p.unit;
          units[p.unit].failure = Failure::kTimeout;
          finish(units[p.unit], now);
        }
        conn.pending.clear();
        // Replies may still be in flight on this stream: retire it.
        if (conn.alive) epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        conn.alive = false;
      }
      break;
    }
    std::int64_t wait = drain_deadline - now;
    if (open && next_due < end) wait = std::min(wait, next_due - now);
    else if (now < end) wait = std::min(wait, end - now);
    wait = std::max<std::int64_t>(wait, 0);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
    const int n = epoll_pwait2(epoll_fd_, events, 64, &ts, nullptr);
    for (int i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(events[i].data.u64);
      if (events[i].events & EPOLLOUT) flush(c);
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read_ready(c);
    }
  }

  const std::int64_t stop = now_ns();
  r.seconds = timed ? o.seconds : static_cast<double>(stop - t0) / 1e9;
  if (!end_seen) r.backlog_end = 0;
  // Whole slices only: the last one may be partial.
  const auto whole = timed ? static_cast<std::size_t>(o.seconds * 1e9 / kSliceNs) : 0;
  for (std::size_t s = 0; s < whole && s < slices.size(); ++s)
    r.slice_rates.push_back(static_cast<double>(slices[s]) * 1e9 / kSliceNs);
  return r;
}

}  // namespace perfbench
