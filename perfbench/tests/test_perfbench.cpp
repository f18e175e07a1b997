// Unit tests of the benchmark's own code: percentile and interval math,
// sample-count reporting, the open-loop schedule, per-seed determinism of
// the workload generators, and self time over nested spans.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_set>

#include "feeds.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

// --- percentile and interval math ------------------------------------------

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 75), 17.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 50), 3.0);  // unsorted input
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  Quartiles q = quartiles(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.spread(), (8.25 - 2.75) / 5.5);
  // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
  q = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.5);
  EXPECT_DOUBLE_EQ(q.median, 2.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.5);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  q = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.median, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 12.0);
}

TEST(Stats, MedianOfEvenAndOddSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// --- sample-count reporting --------------------------------------------------

TEST(Stats, SupportedPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supported_percentile(19), 0.0);
  EXPECT_DOUBLE_EQ(supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(supported_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(supported_percentile(999), 90.0);
  EXPECT_DOUBLE_EQ(supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(supported_percentile(100000), 99.99);
}

TEST(Stats, SummaryReportsCountAndTopPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_DOUBLE_EQ(s.top_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.top_value, s.p99);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  const Summary few = summarize({1, 2, 3});
  EXPECT_EQ(few.n, 3u);
  EXPECT_DOUBLE_EQ(few.top_pct, 0.0);
  EXPECT_DOUBLE_EQ(few.top_value, 3.0);
}

// --- self time over nested spans -------------------------------------------

TEST(Trace, SelfTimeSubtractsUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {"root", "net", 0, 100, -1},
      {"a", "service", 10, 40, 0},
      {"b", "service", 30, 60, 0},  // overlaps a: the union counts once
      {"a1", "core", 15, 20, 1},
      {"c", "core", 90, 120, 0},    // runs past its parent: clipped to 10
  };
  const std::vector<double> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 50.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0 - 5.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 5.0);
  EXPECT_DOUBLE_EQ(self[4], 30.0);
  const auto by_layer = layer_self_ns(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("net"), 40.0);
  EXPECT_DOUBLE_EQ(by_layer.at("service"), 55.0);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 35.0);
}

// --- per-seed determinism of the workload generators ------------------------

std::vector<std::string> draw(const std::string& name, std::uint64_t seed,
                                            std::size_t count) {
  const Workload w = *find_workload(name);
  RequestStream s(w, seed);
  std::vector<std::string> out;
  for (const EmbedRequest& r : s.warmup()) {
    std::vector<std::uint8_t> b;
    dbr::net::encode_request(b, r, true);
    out.emplace_back(b.begin(), b.end());
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<std::uint8_t>& b = s.payload(s.next());
    out.emplace_back(b.begin(), b.end());
  }
  return out;
}

TEST(Workloads, StatelessGeneratorsAreSeedDeterministic) {
  for (const char* name : {"hot_verdict", "cold_ring", "instance_sweep"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(draw(name, 7, 300), draw(name, 7, 300));
    EXPECT_NE(draw(name, 7, 300), draw(name, 8, 300));
  }
}

TEST(Workloads, SessionScriptsAreSeedDeterministic) {
  const auto a = make_sessions(7, 4, 500);
  const auto b = make_sessions(7, 4, 500);
  const auto c = make_sessions(8, 4, 500);
  ASSERT_EQ(a.size(), 4u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].script.events, b[i].script.events);
    EXPECT_EQ(a[i].base.base, b[i].base.base);
    differs |= a[i].script.events != c[i].script.events;
  }
  EXPECT_TRUE(differs);
}

TEST(Workloads, ColdRingNeverRepeatsAFaultSet) {
  const Workload w = *find_workload("cold_ring");
  RequestStream s(w, 3);
  for (int i = 0; i < 3000; ++i) s.next();
  std::unordered_set<std::string> seen;
  for (std::uint32_t i = 0; i < s.distinct().size(); ++i)
    seen.emplace(s.payload(i).begin(), s.payload(i).end());
  EXPECT_EQ(seen.size(), s.distinct().size());
}

TEST(Workloads, SweepPoolOutgrowsTheContextCache) {
  EXPECT_GT(sweep_instances().size(), 64u);
}

// --- the open-loop schedule -------------------------------------------------

// A stand-in server on loopback: answers every kSolve with a fixed valid
// embed, optionally stalling once before its first reply.
class FakeServer {
 public:
  explicit FakeServer(int stall_ms) : stall_ms_(stall_ms) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    listen(listen_fd_, 4);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    dbr::service::EmbedResponse resp;
    auto result = std::make_shared<dbr::service::EmbedResult>();
    result->ring_length = 5;
    result->lower_bound = 1;
    result->upper_bound = 10;
    resp.result = result;
    std::vector<std::uint8_t> payload;
    dbr::net::WireWriter w(payload);
    w.u8(0);
    dbr::net::encode_embed(w, resp, false);
    dbr::net::FrameParser parser;
    std::uint8_t buf[4096];
    bool stalled = false;
    for (;;) {
      const ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      parser.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      dbr::net::Frame f;
      while (parser.next(&f) == dbr::net::FrameParser::Result::kFrame) {
        if (!stalled && stall_ms_ > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          stalled = true;
        }
        std::vector<std::uint8_t> out;
        dbr::net::encode_header(out, f.header.opcode | dbr::net::kReplyBit, f.header.request_id,
                                static_cast<std::uint32_t>(payload.size()));
        out.insert(out.end(), payload.begin(), payload.end());
        send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int stall_ms_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

PhaseResult open_loop(int stall_ms, double rate, double seconds) {
  FakeServer server(stall_ms);
  const Workload w = *find_workload("hot_verdict");
  RequestStream stream(w, 1);
  StatelessFeed feed(stream, false);
  PhaseResult r;
  {
    LoadGen lg(server.port(), 1);
    LoadGen::Options o;
    o.seconds = seconds;
    o.rate = rate;
    r = lg.run(feed, o);
  }
  return r;
}

TEST(OpenLoop, KeepsItsScheduleAndTimesFromDue) {
  const PhaseResult r = open_loop(0, 2000.0, 0.5);
  EXPECT_EQ(r.attempted, 1000u);  // rate * seconds units fall due
  EXPECT_EQ(r.ok, r.attempted);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.late_us.size(), r.attempted);
  EXPECT_LT(percentile(r.late_us, 50.0), 200.0);
  EXPECT_LT(percentile(r.latency_us, 50.0), 5000.0);
}

TEST(OpenLoop, StalledServerShowsUpAsLatencyFromDueTime) {
  // The server sleeps 150 ms before its first reply. Units keep falling due
  // on schedule meanwhile (the generator is not late), and each is timed
  // from its due time, so everything queued behind the stall reports it.
  const PhaseResult r = open_loop(150, 1000.0, 0.5);
  EXPECT_EQ(r.ok, r.attempted);
  EXPECT_LT(percentile(r.late_us, 99.0), 5000.0);
  EXPECT_GT(percentile(r.latency_us, 99.0), 100000.0);
  // Units due during the first ~150 ms (~30% of the run) all waited.
  EXPECT_GT(percentile(r.latency_us, 80.0), 50000.0);
  EXPECT_LT(percentile(r.latency_us, 10.0), 5000.0);
  EXPECT_GT(r.backlog_mid, 0);
}

TEST(ClosedLoop, OneOutstandingUnitPerConnection) {
  FakeServer server(0);
  const Workload w = *find_workload("hot_verdict");
  RequestStream stream(w, 1);
  StatelessFeed feed(stream, false);
  LoadGen lg(server.port(), 1);
  LoadGen::Options o;
  o.max_units = 50;
  const PhaseResult r = lg.run(feed, o);
  EXPECT_EQ(r.attempted, 50u);
  EXPECT_EQ(r.ok, 50u);
  EXPECT_TRUE(r.late_us.empty());
}
