#pragma once

/// \file
/// Binary wire protocol of the networked embed service: a compact
/// length-prefixed framing (versioned 16-byte header, explicit little-endian
/// field encoding) plus payload codecs for EmbedRequest / EmbedResponse /
/// FaultSet and the STATS snapshot. Decoding is hardened: every read is
/// bounds-checked, counts are validated against the remaining payload, and
/// malformed input (truncated frames, bad magic, absurd lengths, garbage
/// bytes) decodes to a clean error — never UB. The codec is shared verbatim
/// by net::Server, net::Client and the wire fuzz tests.
///
/// Frame layout (all integers little-endian):
///
///   offset 0   u8[4]  magic  'D' 'B' 'R' '1'
///   offset 4   u8     protocol version (kWireVersion)
///   offset 5   u8     opcode (Op; replies set kReplyBit)
///   offset 6   u16    flags (reserved, must be zero)
///   offset 8   u32    request id (client-chosen, echoed on the reply)
///   offset 12  u32    payload length (<= kMaxPayload)
///   offset 16  u8[payload length] payload
///
/// Every reply payload leads with a WireStatus byte; a non-kOk status is
/// followed only by an error-message string. Payload encodings are
/// documented on the encode_* functions below.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "service/engine.hpp"
#include "service/session.hpp"
#include "service/types.hpp"

namespace dbr::net {

/// Protocol version carried by every frame header.
inline constexpr std::uint8_t kWireVersion = 1;
/// Frame header size in bytes.
inline constexpr std::size_t kHeaderSize = 16;
/// Upper bound on a frame payload; larger lengths are rejected at the
/// header, before any allocation, so a hostile length cannot OOM the peer.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;
/// Frame magic bytes "DBR1".
inline constexpr std::uint8_t kMagic[4] = {'D', 'B', 'R', '1'};
/// Set on the opcode of every reply frame.
inline constexpr std::uint8_t kReplyBit = 0x80;

/// Operation selector of a request frame. Session ops act on the
/// connection's lazily created EmbedSession; kSolve is stateless.
enum class Op : std::uint8_t {
  kSolve = 1,          ///< stateless one-shot solve (EmbedRequest payload)
  kSessionConfig = 2,  ///< bind the connection session's instance/strategy
  kFaultAdd = 3,       ///< kinded add_fault on the session
  kFaultRemove = 4,    ///< kinded clear_fault on the session
  kFaultReset = 5,     ///< reset_faults on the session
  kSessionSolve = 6,   ///< current_ring of the session
  kStats = 7,          ///< coherent engine/server/session stats snapshot
};

/// True for opcodes a request frame may carry.
bool valid_op(std::uint8_t raw);

/// Wire-level outcome of one request, orthogonal to service::EmbedStatus
/// (which classifies the *embedding* answer inside a kOk reply).
enum class WireStatus : std::uint8_t {
  kOk = 0,            ///< request executed; payload follows
  kBadFrame = 1,      ///< payload did not decode / unknown opcode
  kBadRequest = 2,    ///< a documented precondition was violated
  kNoSession = 3,     ///< session op before kSessionConfig
  kOverloaded = 4,    ///< admission control rejected (queue bound reached)
  kTimeout = 5,       ///< request exceeded the server's per-request deadline
  kShuttingDown = 6,  ///< server is draining; no new work accepted
  kInternal = 7,      ///< unexpected server-side failure
};

/// Short lower-case name of a wire status (e.g. "ok", "overloaded").
const char* to_string(WireStatus s);

/// Decoded frame header (magic stripped, fields validated).
struct FrameHeader {
  std::uint8_t version = kWireVersion;
  std::uint8_t opcode = 0;       ///< raw opcode byte (may carry kReplyBit)
  std::uint16_t flags = 0;       ///< reserved; must be zero
  std::uint32_t request_id = 0;  ///< echoed on the reply
  std::uint32_t payload_len = 0;
};

/// Why a header (or stream) failed to parse. Errors at this level poison
/// the whole byte stream — the connection must be closed, since frame
/// boundaries can no longer be trusted.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kBadMagic,    ///< first four bytes are not "DBR1"
  kBadVersion,  ///< unknown protocol version
  kBadFlags,    ///< reserved flags set
  kOversized,   ///< payload length exceeds kMaxPayload
};

/// Parses a frame header from the first kHeaderSize bytes of `bytes`.
/// Returns nullopt with *err = kNone when fewer bytes are available (read
/// more), nullopt with *err != kNone on a malformed header.
std::optional<FrameHeader> decode_header(std::span<const std::uint8_t> bytes,
                                         FrameError* err);

/// Appends a frame header for `payload_len` payload bytes to `out`.
void encode_header(std::vector<std::uint8_t>& out, std::uint8_t opcode,
                   std::uint32_t request_id, std::uint32_t payload_len);

/// Sets the payload length of the frame whose header starts at
/// `frame_start` in `out` to every byte after that header — for encoders
/// that write the header first and the payload in place behind it.
void patch_payload_len(std::vector<std::uint8_t>& out, std::size_t frame_start);

/// Bounds-checked little-endian reader over one payload. All accessors
/// return zero values once the reader has failed; check ok() (and
/// exhausted() for trailing garbage) after the last field.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Length-prefixed (u32) byte string; fails if the length exceeds the
  /// remaining payload.
  std::string str();
  /// Length-prefixed (u32 count) vector of u64 words; the count is
  /// validated against the remaining bytes before any allocation.
  std::vector<Word> words();

  /// True while every read so far stayed in bounds.
  bool ok() const { return ok_; }
  /// True when the payload was consumed exactly (no trailing bytes).
  bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
  std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }

 private:
  bool take(std::size_t count, const std::uint8_t** p);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Little-endian appender building one payload (or whole frame) in a
/// caller-owned buffer.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  void words(std::span<const Word> ws);

 private:
  std::vector<std::uint8_t>* out_;
};

// --- FaultSet ---------------------------------------------------------------

/// Appends a FaultSet: u32 node count, node words, u32 edge count, edge
/// words.
void encode_fault_set(WireWriter& w, const service::FaultSet& set);

/// Reads a FaultSet written by encode_fault_set; false on malformed input.
bool decode_fault_set(WireReader& r, service::FaultSet* set);

// --- EmbedRequest (kSolve payload) ------------------------------------------

/// Appends a kSolve payload: u32 base, u32 n, u8 fault kind, u8 strategy,
/// u8 want_ring, u8 reserved, then the FaultSet (request.faults as nodes,
/// request.edge_faults as edges). `want_ring` false asks the server to omit
/// the ring words from the reply (bounds/lengths still included) — the load
/// generator's bandwidth mode.
void encode_request(std::vector<std::uint8_t>& out,
                    const service::EmbedRequest& request, bool want_ring);

/// Decodes a kSolve payload. Enum bytes outside the declared ranges and
/// counts that overrun the payload fail cleanly (returns false, outputs
/// untouched or partially filled but always valid vectors).
bool decode_request(std::span<const std::uint8_t> payload,
                    service::EmbedRequest* request, bool* want_ring);

// --- EmbedResponse (solve reply payload) ------------------------------------

/// A decoded solve reply: the embedding answer plus serve provenance. The
/// wire mirror of service::EmbedResponse (with the shared_ptr flattened).
struct WireEmbed {
  service::EmbedStatus status = service::EmbedStatus::kOk;
  service::Strategy strategy_used = service::Strategy::kAuto;
  bool cache_hit = false;
  bool context_cache_hit = false;
  bool repaired = false;
  bool quarantined = false;
  std::uint64_t ring_length = 0;
  std::uint64_t lower_bound = 0;
  std::uint64_t upper_bound = 0;
  double compute_micros = 0.0;
  double latency_micros = 0.0;  ///< server-side serve latency
  std::string error;
  bool has_ring = false;  ///< ring words present (want_ring was set)
  std::vector<Word> ring;
};

/// Appends a solve reply payload (after the caller's WireStatus byte):
/// fixed fields, error string, u8 has_ring, and the ring words when
/// `want_ring`. The encoding is a pure function of the response, so
/// encode/decode round-trips bit-identically.
void encode_embed(WireWriter& w, const service::EmbedResponse& response,
                  bool want_ring);

/// Reads a solve reply payload written by encode_embed.
bool decode_embed(WireReader& r, WireEmbed* out);

// --- STATS reply ------------------------------------------------------------

/// Server-side counters returned by the STATS op (net::Server internals).
struct WireServerStats {
  std::uint64_t accepted = 0;     ///< connections accepted since start
  std::uint64_t connections = 0;  ///< currently open connections
  std::uint64_t frames_in = 0;    ///< request frames parsed
  std::uint64_t frames_out = 0;   ///< reply frames written
  std::uint64_t solves = 0;       ///< solve ops executed (kSolve + kSessionSolve)
  std::uint64_t overloaded = 0;   ///< ops rejected by admission control
  std::uint64_t timeouts = 0;     ///< ops past their deadline
  std::uint64_t bad_frames = 0;   ///< malformed frames / unknown opcodes
  std::uint64_t shutdown_rejects = 0;  ///< ops rejected while draining
  bool draining = false;          ///< graceful drain in progress
};

/// Per-shard slice of the fabric STATS extension: placement and
/// read-balancing counters of one engine shard (service::FabricShardStats
/// flattened; the shard's own engine counters fold into the aggregate
/// engine snapshot rather than riding the wire per shard).
struct WireFabricShard {
  std::uint32_t shard = 0;            ///< dense shard id
  bool alive = true;                  ///< false between kill and revive
  std::uint64_t keys_owned = 0;       ///< observed instance keys owned
  std::uint64_t queries = 0;          ///< requests routed to this shard
  std::uint64_t replica_reads = 0;    ///< requests served as a replica
  std::uint64_t context_builds = 0;   ///< this shard's context-cache misses

  bool operator==(const WireFabricShard&) const = default;
};

/// Fabric-aggregate counters of a fabric-mode server's STATS reply,
/// including the Section-2.4 remap cost estimate (total rounds + messages
/// of the distributed rebuilds the remaps so far are priced at).
struct WireFabricStats {
  std::uint64_t queries = 0;        ///< total requests routed
  std::uint64_t hot_keys = 0;       ///< keys promoted to hot
  std::uint64_t replica_reads = 0;  ///< reads load-balanced off the owner
  std::uint64_t remap_events = 0;   ///< kill/revive transitions
  std::uint64_t remapped_keys = 0;  ///< keys whose owner changed
  std::uint64_t remap_rounds = 0;   ///< Section-2.4 rebuild rounds charged
  std::uint64_t remap_messages = 0; ///< Section-2.4 rebuild message envelope
  std::vector<WireFabricShard> shards;

  bool operator==(const WireFabricStats&) const = default;
};

/// Everything the STATS op reports: one coherent engine snapshot
/// (EmbedEngine::stats_snapshot; in fabric mode the per-shard snapshots
/// summed), the server's own counters, when the connection has a configured
/// session its SessionStats/RepairStats, and — from fabric-mode servers —
/// the per-shard/aggregate fabric section. The fabric section is an
/// append-only protocol extension: peers speaking the original payload
/// (without even the has_fabric byte) still interoperate, see decode_stats.
struct WireStats {
  service::EngineStatsSnapshot engine;
  WireServerStats server;
  bool has_session = false;
  service::SessionStats session;
  service::RepairStats repair;
  bool has_fabric = false;
  WireFabricStats fabric;
};

/// Appends a STATS reply payload (after the caller's WireStatus byte).
void encode_stats(WireWriter& w, const WireStats& stats);

/// Reads a STATS reply payload written by encode_stats. Versioned: a
/// payload that ends after the session block (the pre-fabric encoding) is
/// accepted with has_fabric = false, so stats from an older peer still
/// decode.
bool decode_stats(WireReader& r, WireStats* out);

// --- Stream framing ---------------------------------------------------------

/// One complete frame extracted from a byte stream.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Incremental frame extractor over a TCP byte stream. Feed arbitrary
/// chunks; next() yields complete frames in order. A header-level error
/// (bad magic/version/flags/length) is sticky: the stream can no longer be
/// framed and the connection must be dropped.
class FrameParser {
 public:
  enum class Result : std::uint8_t {
    kFrame,     ///< *frame was filled
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< unframeable stream; see error()
  };

  /// Appends raw bytes from the socket.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame, if any.
  Result next(Frame* frame);

  FrameError error() const { return error_; }
  /// Bytes buffered but not yet consumed (for tests / introspection).
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  ///< consumed prefix; compacted lazily
  FrameError error_ = FrameError::kNone;
};

}  // namespace dbr::net
