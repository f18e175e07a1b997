#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/types.hpp"

// Wire-codec round-trip fuzz + malformed-frame corpus. The round-trip half
// generates random requests/responses/stats, encodes, decodes, and asserts
// bit-identity of every field; the adversarial half feeds truncated frames,
// bad magic, absurd lengths, and plain garbage through decode_* and the
// FrameParser and asserts a clean error every time — no crash, no UB (this
// file runs under the ASan/UBSan CI job like every other test).
//
// Knobs (env): DBR_WIRE_FUZZ_ITERS  iterations per fuzz test (default 300)

namespace dbr::net {
namespace {

using service::EmbedRequest;
using service::EmbedResponse;
using service::EmbedResult;
using service::EmbedStatus;
using service::FaultKind;
using service::FaultSet;
using service::Strategy;

std::size_t fuzz_iters() {
  if (const char* v = std::getenv("DBR_WIRE_FUZZ_ITERS")) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 300;
}

FaultSet random_fault_set(std::mt19937_64& rng) {
  FaultSet set;
  std::uniform_int_distribution<int> count(0, 6);
  std::uniform_int_distribution<Word> word(0, 1u << 20);
  const int nodes = count(rng);
  const int edges = count(rng);
  for (int i = 0; i < nodes; ++i) set.nodes.push_back(word(rng));
  for (int i = 0; i < edges; ++i) set.edges.push_back(word(rng));
  return set;
}

EmbedRequest random_request(std::mt19937_64& rng) {
  EmbedRequest req;
  req.base = static_cast<Digit>(2 + rng() % 7);
  req.n = static_cast<unsigned>(2 + rng() % 12);
  req.fault_kind = static_cast<FaultKind>(rng() % 3);
  req.strategy = static_cast<Strategy>(rng() % 7);
  FaultSet set = random_fault_set(rng);
  req.faults = std::move(set.nodes);
  req.edge_faults = std::move(set.edges);
  return req;
}

EmbedResponse random_response(std::mt19937_64& rng) {
  auto result = std::make_shared<EmbedResult>();
  result->status = static_cast<EmbedStatus>(rng() % 4);
  result->strategy_used = static_cast<Strategy>(rng() % 7);
  result->ring_length = rng() % 4096;
  result->lower_bound = rng() % 4096;
  result->upper_bound = rng() % 4096;
  result->compute_micros = static_cast<double>(rng() % 1000000) / 7.0;
  result->quarantined = (rng() % 4) == 0;
  if (result->status != EmbedStatus::kOk)
    result->error = "synthetic error #" + std::to_string(rng() % 100);
  const std::size_t ring_words = rng() % 64;
  for (std::size_t i = 0; i < ring_words; ++i)
    result->ring.nodes.push_back(rng() % (1u << 24));
  EmbedResponse resp;
  resp.result = std::move(result);
  resp.cache_hit = rng() % 2;
  resp.context_cache_hit = rng() % 2;
  resp.repaired = rng() % 2;
  resp.latency_micros = static_cast<double>(rng() % 1000000) / 3.0;
  return resp;
}

TEST(WireHeader, RoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, static_cast<std::uint8_t>(Op::kSolve), 0xdeadbeef, 12);
  ASSERT_EQ(bytes.size(), kHeaderSize);
  FrameError err = FrameError::kNone;
  const auto header = decode_header(bytes, &err);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(err, FrameError::kNone);
  EXPECT_EQ(header->version, kWireVersion);
  EXPECT_EQ(header->opcode, static_cast<std::uint8_t>(Op::kSolve));
  EXPECT_EQ(header->flags, 0);
  EXPECT_EQ(header->request_id, 0xdeadbeefu);
  EXPECT_EQ(header->payload_len, 12u);
}

TEST(WireHeader, ShortPrefixAsksForMore) {
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, static_cast<std::uint8_t>(Op::kStats), 7, 0);
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    FrameError err = FrameError::kBadMagic;  // must be reset to kNone
    const auto header = decode_header(
        std::span<const std::uint8_t>(bytes.data(), len), &err);
    EXPECT_FALSE(header.has_value()) << "len=" << len;
    EXPECT_EQ(err, FrameError::kNone) << "len=" << len;
  }
}

TEST(WireHeader, RejectsBadMagicVersionFlagsLength) {
  std::vector<std::uint8_t> good;
  encode_header(good, static_cast<std::uint8_t>(Op::kSolve), 1, 4);
  FrameError err = FrameError::kNone;

  auto bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kBadMagic);

  bad = good;
  bad[4] = kWireVersion + 9;
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kBadVersion);

  bad = good;
  bad[6] = 0x01;  // reserved flags
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kBadFlags);

  bad = good;
  bad[12] = 0xff;  // payload_len little-endian low byte
  bad[13] = 0xff;
  bad[14] = 0xff;
  bad[15] = 0x7f;  // ~2 GiB: absurd, rejected before any allocation
  EXPECT_FALSE(decode_header(bad, &err).has_value());
  EXPECT_EQ(err, FrameError::kOversized);
}

TEST(WireFuzz, RequestRoundTripIsBitIdentical) {
  std::mt19937_64 rng(20260808);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    const EmbedRequest req = random_request(rng);
    const bool want_ring = rng() % 2;
    std::vector<std::uint8_t> payload;
    encode_request(payload, req, want_ring);
    EmbedRequest back;
    bool ring = !want_ring;
    ASSERT_TRUE(decode_request(payload, &back, &ring)) << "iter=" << i;
    EXPECT_EQ(back.base, req.base) << "iter=" << i;
    EXPECT_EQ(back.n, req.n) << "iter=" << i;
    EXPECT_EQ(back.fault_kind, req.fault_kind) << "iter=" << i;
    EXPECT_EQ(back.strategy, req.strategy) << "iter=" << i;
    EXPECT_EQ(back.faults, req.faults) << "iter=" << i;
    EXPECT_EQ(back.edge_faults, req.edge_faults) << "iter=" << i;
    EXPECT_EQ(ring, want_ring) << "iter=" << i;
  }
}

TEST(WireFuzz, EmbedRoundTripIsBitIdentical) {
  std::mt19937_64 rng(20260809);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    const EmbedResponse resp = random_response(rng);
    const bool want_ring = rng() % 2;
    std::vector<std::uint8_t> payload;
    WireWriter w(payload);
    encode_embed(w, resp, want_ring);
    WireReader r(payload);
    WireEmbed back;
    ASSERT_TRUE(decode_embed(r, &back)) << "iter=" << i;
    ASSERT_TRUE(r.exhausted()) << "iter=" << i;
    EXPECT_EQ(back.status, resp.result->status) << "iter=" << i;
    EXPECT_EQ(back.strategy_used, resp.result->strategy_used) << "iter=" << i;
    EXPECT_EQ(back.cache_hit, resp.cache_hit) << "iter=" << i;
    EXPECT_EQ(back.context_cache_hit, resp.context_cache_hit) << "iter=" << i;
    EXPECT_EQ(back.repaired, resp.repaired) << "iter=" << i;
    EXPECT_EQ(back.quarantined, resp.result->quarantined) << "iter=" << i;
    EXPECT_EQ(back.ring_length, resp.result->ring_length) << "iter=" << i;
    EXPECT_EQ(back.lower_bound, resp.result->lower_bound) << "iter=" << i;
    EXPECT_EQ(back.upper_bound, resp.result->upper_bound) << "iter=" << i;
    // Doubles cross the wire as their exact IEEE bits, so == is exact.
    EXPECT_EQ(back.compute_micros, resp.result->compute_micros) << "iter=" << i;
    EXPECT_EQ(back.latency_micros, resp.latency_micros) << "iter=" << i;
    EXPECT_EQ(back.error, resp.result->error) << "iter=" << i;
    EXPECT_EQ(back.has_ring, want_ring) << "iter=" << i;
    if (want_ring)
      EXPECT_EQ(back.ring, resp.result->ring.nodes) << "iter=" << i;
    else
      EXPECT_TRUE(back.ring.empty()) << "iter=" << i;
  }
}

TEST(WireGolden, SmallRingReplyBytes) {
  // Pins the ring codec to its per-word little-endian layout: u32 count,
  // then each word's 8 bytes, least significant first.
  auto result = std::make_shared<EmbedResult>();
  result->status = EmbedStatus::kOk;
  result->strategy_used = Strategy::kEdgeAuto;
  result->ring_length = 3;
  result->lower_bound = 4;
  result->upper_bound = 0x0102;
  result->compute_micros = 1.5;  // IEEE bits 0x3ff8000000000000
  result->ring.nodes = {0x0123456789abcdefull, 1, 0xfe00000000000080ull};
  EmbedResponse resp;
  resp.result = result;
  resp.cache_hit = true;
  resp.latency_micros = 0.25;  // IEEE bits 0x3fd0000000000000

  const std::vector<std::uint8_t> golden = {
      0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,  // status..reserved
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ring_length
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // lower_bound
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // upper_bound
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // compute_micros
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,  // latency_micros
      0x00, 0x00, 0x00, 0x00,                          // error: empty
      0x01,                                            // has_ring
      0x03, 0x00, 0x00, 0x00,                          // word count
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // ring[0]
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ring[1]
      0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfe,  // ring[2]
  };
  std::vector<std::uint8_t> payload = {0xaa};  // the codec appends
  WireWriter w(payload);
  encode_embed(w, resp, /*want_ring=*/true);
  ASSERT_EQ(payload.size(), 1 + golden.size());
  EXPECT_EQ(std::vector<std::uint8_t>(payload.begin() + 1, payload.end()), golden);

  WireReader r(golden);
  WireEmbed back;
  ASSERT_TRUE(decode_embed(r, &back));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.ring, result->ring.nodes);
  EXPECT_EQ(back.upper_bound, 0x0102u);
}

TEST(WireFuzz, FaultSetRoundTrip) {
  std::mt19937_64 rng(20260810);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    const FaultSet set = random_fault_set(rng);
    std::vector<std::uint8_t> payload;
    WireWriter w(payload);
    encode_fault_set(w, set);
    WireReader r(payload);
    FaultSet back;
    ASSERT_TRUE(decode_fault_set(r, &back)) << "iter=" << i;
    ASSERT_TRUE(r.exhausted()) << "iter=" << i;
    EXPECT_EQ(back.nodes, set.nodes) << "iter=" << i;
    EXPECT_EQ(back.edges, set.edges) << "iter=" << i;
  }
}

// Every strict prefix of a valid payload must decode to a clean failure:
// truncation can never read out of bounds or crash.
TEST(WireFuzz, TruncatedRequestFailsCleanly) {
  std::mt19937_64 rng(20260811);
  for (std::size_t i = 0; i < 50; ++i) {
    const EmbedRequest req = random_request(rng);
    std::vector<std::uint8_t> payload;
    encode_request(payload, req, true);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      EmbedRequest back;
      bool ring = false;
      EXPECT_FALSE(decode_request(
          std::span<const std::uint8_t>(payload.data(), len), &back, &ring))
          << "iter=" << i << " len=" << len;
    }
  }
}

TEST(WireFuzz, GarbagePayloadsNeverMisbehave) {
  std::mt19937_64 rng(20260812);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 512);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    std::vector<std::uint8_t> junk(size(rng));
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    // Any of these may *succeed* if the junk happens to parse; the contract
    // under test is bounded reads and no UB, which ASan/UBSan enforce.
    EmbedRequest req;
    bool ring = false;
    decode_request(junk, &req, &ring);
    WireReader r1(junk);
    WireEmbed embed;
    decode_embed(r1, &embed);
    WireReader r2(junk);
    WireStats stats;
    decode_stats(r2, &stats);
    WireReader r3(junk);
    FaultSet set;
    decode_fault_set(r3, &set);
  }
}

// --- STATS ------------------------------------------------------------------

WireStats sample_stats() {
  WireStats s;
  s.engine.serve.queries = 101;
  s.engine.serve.result_hits = 40;
  s.engine.cache.hits = 40;
  s.engine.cache.misses = 61;
  s.engine.contexts.misses = 7;
  s.engine.validation.checked = 61;
  s.server.accepted = 9;
  s.server.frames_in = 120;
  s.server.solves = 101;
  s.server.draining = true;
  s.has_session = true;
  s.session.adds = 5;
  s.session.solves = 6;
  s.session.solve_micros_total = 12.5;
  s.repair.spliced = 2;
  s.repair.repair_micros_total = 3.25;
  return s;
}

std::vector<std::uint8_t> stats_payload(const WireStats& s) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  encode_stats(w, s);
  return payload;
}

TEST(WireStatsCodec, RoundTripIsBitIdenticalWithAndWithoutSession) {
  for (const bool with_session : {true, false}) {
    SCOPED_TRACE(with_session ? "with session" : "without session");
    WireStats s = sample_stats();
    s.has_session = with_session;
    const std::vector<std::uint8_t> payload = stats_payload(s);
    WireReader r(payload);
    WireStats out;
    ASSERT_TRUE(decode_stats(r, &out));
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(stats_payload(out), payload);
    EXPECT_EQ(out.engine.serve.queries, s.engine.serve.queries);
    EXPECT_EQ(out.server.frames_in, s.server.frames_in);
    EXPECT_TRUE(out.server.draining);
    EXPECT_EQ(out.has_session, with_session);
    if (with_session) {
      EXPECT_EQ(out.session.solves, s.session.solves);
      EXPECT_EQ(out.repair.spliced, s.repair.spliced);
    }
  }
}

TEST(WireStatsCodec, TrailingByteIsRejected) {
  for (const bool with_session : {true, false}) {
    SCOPED_TRACE(with_session ? "with session" : "without session");
    WireStats s = sample_stats();
    s.has_session = with_session;
    std::vector<std::uint8_t> payload = stats_payload(s);
    payload.push_back(0);
    WireReader r(payload);
    WireStats out;
    EXPECT_FALSE(decode_stats(r, &out));
  }
}

TEST(WireFuzz, HostileCountsRejectedBeforeAllocation) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(0xffffffffu);  // word count with no words behind it
  WireReader r(payload);
  const std::vector<Word> words = r.words();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(words.empty());
}

TEST(FrameParser, ReassemblesFramesAcrossArbitraryChunks) {
  std::mt19937_64 rng(20260813);
  // Three frames back-to-back, fed one random-sized sliver at a time.
  std::vector<std::uint8_t> stream;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    std::vector<std::uint8_t> payload;
    encode_request(payload, random_request(rng), true);
    encode_header(stream, static_cast<std::uint8_t>(Op::kSolve), id,
                  static_cast<std::uint32_t>(payload.size()));
    stream.insert(stream.end(), payload.begin(), payload.end());
  }
  FrameParser parser;
  std::vector<Frame> frames;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng() % 7, stream.size() - pos);
    parser.feed(std::span<const std::uint8_t>(stream.data() + pos, chunk));
    pos += chunk;
    Frame f;
    while (parser.next(&f) == FrameParser::Result::kFrame)
      frames.push_back(std::move(f));
  }
  ASSERT_EQ(frames.size(), 3u);
  for (std::uint32_t id = 1; id <= 3; ++id)
    EXPECT_EQ(frames[id - 1].header.request_id, id);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, StickyErrorOnGarbageStream) {
  FrameParser parser;
  std::vector<std::uint8_t> junk = {'n', 'o', 'p', 'e', 0, 0, 0, 0,
                                    0,   0,   0,   0,   0, 0, 0, 0};
  parser.feed(junk);
  Frame f;
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kError);
  EXPECT_EQ(parser.error(), FrameError::kBadMagic);
  // Feeding a perfectly valid frame afterwards cannot resurrect the stream:
  // frame boundaries are untrusted once framing has failed.
  std::vector<std::uint8_t> good;
  encode_header(good, static_cast<std::uint8_t>(Op::kStats), 1, 0);
  parser.feed(good);
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kError);
}

TEST(FrameParser, OversizedLengthIsAnError) {
  std::vector<std::uint8_t> header;
  encode_header(header, static_cast<std::uint8_t>(Op::kSolve), 1, 0);
  header[12] = 0xff;
  header[13] = 0xff;
  header[14] = 0xff;
  header[15] = 0xff;
  FrameParser parser;
  parser.feed(header);
  Frame f;
  EXPECT_EQ(parser.next(&f), FrameParser::Result::kError);
  EXPECT_EQ(parser.error(), FrameError::kOversized);
}

TEST(FrameParser, RandomJunkNeverCrashes) {
  std::mt19937_64 rng(20260814);
  std::uniform_int_distribution<int> byte(0, 255);
  for (std::size_t i = 0; i < fuzz_iters(); ++i) {
    FrameParser parser;
    std::vector<std::uint8_t> junk(1 + rng() % 256);
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    // Occasionally lead with real magic so the fuzz also explores the
    // header-accepted-then-truncated path.
    if (rng() % 3 == 0 && junk.size() >= 4) {
      junk[0] = kMagic[0];
      junk[1] = kMagic[1];
      junk[2] = kMagic[2];
      junk[3] = kMagic[3];
      if (junk.size() >= 5 && rng() % 2) junk[4] = kWireVersion;
    }
    parser.feed(junk);
    Frame f;
    for (int steps = 0; steps < 64; ++steps) {
      const FrameParser::Result res = parser.next(&f);
      if (res != FrameParser::Result::kFrame) break;
    }
  }
}

}  // namespace
}  // namespace dbr::net
