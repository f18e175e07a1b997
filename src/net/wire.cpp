#include "net/wire.hpp"

#include <cstring>

namespace dbr::net {

namespace {

constexpr std::uint8_t kMaxFaultKind =
    static_cast<std::uint8_t>(service::FaultKind::kMixed);
constexpr std::uint8_t kMaxStrategy =
    static_cast<std::uint8_t>(service::Strategy::kMixed);
constexpr std::uint8_t kMaxEmbedStatus =
    static_cast<std::uint8_t>(service::EmbedStatus::kInternalError);

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

bool valid_op(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(Op::kSolve) &&
         raw <= static_cast<std::uint8_t>(Op::kStats);
}

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadFrame: return "bad_frame";
    case WireStatus::kBadRequest: return "bad_request";
    case WireStatus::kNoSession: return "no_session";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kTimeout: return "timeout";
    case WireStatus::kShuttingDown: return "shutting_down";
    case WireStatus::kInternal: return "internal";
  }
  return "unknown";
}

// --- header -----------------------------------------------------------------

std::optional<FrameHeader> decode_header(std::span<const std::uint8_t> bytes,
                                         FrameError* err) {
  if (err != nullptr) *err = FrameError::kNone;
  if (bytes.size() < kHeaderSize) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    if (err != nullptr) *err = FrameError::kBadMagic;
    return std::nullopt;
  }
  FrameHeader h;
  h.version = bytes[4];
  h.opcode = bytes[5];
  h.flags = static_cast<std::uint16_t>(bytes[6]) |
            static_cast<std::uint16_t>(bytes[7]) << 8;
  h.request_id = static_cast<std::uint32_t>(bytes[8]) |
                 static_cast<std::uint32_t>(bytes[9]) << 8 |
                 static_cast<std::uint32_t>(bytes[10]) << 16 |
                 static_cast<std::uint32_t>(bytes[11]) << 24;
  h.payload_len = static_cast<std::uint32_t>(bytes[12]) |
                  static_cast<std::uint32_t>(bytes[13]) << 8 |
                  static_cast<std::uint32_t>(bytes[14]) << 16 |
                  static_cast<std::uint32_t>(bytes[15]) << 24;
  if (h.version != kWireVersion) {
    if (err != nullptr) *err = FrameError::kBadVersion;
    return std::nullopt;
  }
  if (h.flags != 0) {
    if (err != nullptr) *err = FrameError::kBadFlags;
    return std::nullopt;
  }
  if (h.payload_len > kMaxPayload) {
    if (err != nullptr) *err = FrameError::kOversized;
    return std::nullopt;
  }
  return h;
}

void encode_header(std::vector<std::uint8_t>& out, std::uint8_t opcode,
                   std::uint32_t request_id, std::uint32_t payload_len) {
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  out.push_back(kWireVersion);
  out.push_back(opcode);
  out.push_back(0);  // flags lo
  out.push_back(0);  // flags hi
  WireWriter w(out);
  w.u32(request_id);
  w.u32(payload_len);
}

void patch_payload_len(std::vector<std::uint8_t>& out, std::size_t frame_start) {
  const std::size_t len = out.size() - frame_start - kHeaderSize;
  for (std::size_t i = 0; i < 4; ++i)
    out[frame_start + 12 + i] = static_cast<std::uint8_t>(len >> (8 * i));
}

// --- reader / writer --------------------------------------------------------

bool WireReader::take(std::size_t count, const std::uint8_t** p) {
  if (!ok_ || bytes_.size() - pos_ < count) {
    ok_ = false;
    return false;
  }
  *p = bytes_.data() + pos_;
  pos_ += count;
  return true;
}

std::uint8_t WireReader::u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return p[0];
}

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = nullptr;
  if (!take(2, &p)) return 0;
  return static_cast<std::uint16_t>(p[0]) |
         static_cast<std::uint16_t>(p[1]) << 8;
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  return load_le64(p);
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = nullptr;
  if (!take(len, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<Word> WireReader::words() {
  const std::uint32_t count = u32();
  // take() validates against the remaining payload *before* the vector is
  // sized: a hostile count must not drive an allocation it cannot back
  // with bytes.
  const std::uint8_t* p = nullptr;
  if (!take(static_cast<std::size_t>(count) * 8, &p)) return {};
  std::vector<Word> out(count);
  for (Word& w : out) {
    w = load_le64(p);
    p += 8;
  }
  return out;
}

void WireWriter::u16(std::uint16_t v) {
  out_->push_back(static_cast<std::uint8_t>(v));
  out_->push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::u64(std::uint64_t v) {
  const std::size_t at = out_->size();
  out_->resize(at + 8);
  store_le64(out_->data() + at, v);
}

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

void WireWriter::words(std::span<const Word> ws) {
  u32(static_cast<std::uint32_t>(ws.size()));
  // One resize for the whole ring, then each word's 8 little-endian bytes.
  const std::size_t at = out_->size();
  out_->resize(at + 8 * ws.size());
  std::uint8_t* p = out_->data() + at;
  for (Word w : ws) {
    store_le64(p, w);
    p += 8;
  }
}

// --- FaultSet ---------------------------------------------------------------

void encode_fault_set(WireWriter& w, const service::FaultSet& set) {
  w.words(set.nodes);
  w.words(set.edges);
}

bool decode_fault_set(WireReader& r, service::FaultSet* set) {
  set->nodes = r.words();
  set->edges = r.words();
  return r.ok();
}

// --- EmbedRequest -----------------------------------------------------------

void encode_request(std::vector<std::uint8_t>& out,
                    const service::EmbedRequest& request, bool want_ring) {
  WireWriter w(out);
  w.u32(request.base);
  w.u32(request.n);
  w.u8(static_cast<std::uint8_t>(request.fault_kind));
  w.u8(static_cast<std::uint8_t>(request.strategy));
  w.u8(want_ring ? 1 : 0);
  w.u8(0);  // reserved
  service::FaultSet set;
  set.nodes = request.faults;
  set.edges = request.edge_faults;
  encode_fault_set(w, set);
}

bool decode_request(std::span<const std::uint8_t> payload,
                    service::EmbedRequest* request, bool* want_ring) {
  WireReader r(payload);
  service::EmbedRequest req;
  req.base = r.u32();
  req.n = r.u32();
  const std::uint8_t kind = r.u8();
  const std::uint8_t strategy = r.u8();
  const std::uint8_t ring = r.u8();
  r.u8();  // reserved
  if (!r.ok() || kind > kMaxFaultKind || strategy > kMaxStrategy || ring > 1)
    return false;
  req.fault_kind = static_cast<service::FaultKind>(kind);
  req.strategy = static_cast<service::Strategy>(strategy);
  service::FaultSet set;
  if (!decode_fault_set(r, &set) || !r.exhausted()) return false;
  req.faults = std::move(set.nodes);
  req.edge_faults = std::move(set.edges);
  *request = std::move(req);
  if (want_ring != nullptr) *want_ring = ring != 0;
  return true;
}

// --- EmbedResponse ----------------------------------------------------------

void encode_embed(WireWriter& w, const service::EmbedResponse& response,
                  bool want_ring) {
  const service::EmbedResult& result = *response.result;
  w.u8(static_cast<std::uint8_t>(result.status));
  w.u8(static_cast<std::uint8_t>(result.strategy_used));
  w.u8(response.cache_hit ? 1 : 0);
  w.u8(response.context_cache_hit ? 1 : 0);
  w.u8(response.repaired ? 1 : 0);
  w.u8(result.quarantined ? 1 : 0);
  w.u16(0);  // reserved
  w.u64(result.ring_length);
  w.u64(result.lower_bound);
  w.u64(result.upper_bound);
  w.f64(result.compute_micros);
  w.f64(response.latency_micros);
  w.str(result.error);
  w.u8(want_ring ? 1 : 0);
  if (want_ring) w.words(result.ring.nodes);
}

bool decode_embed(WireReader& r, WireEmbed* out) {
  WireEmbed e;
  const std::uint8_t status = r.u8();
  const std::uint8_t strategy = r.u8();
  const std::uint8_t cache_hit = r.u8();
  const std::uint8_t context_hit = r.u8();
  const std::uint8_t repaired = r.u8();
  const std::uint8_t quarantined = r.u8();
  r.u16();  // reserved
  if (!r.ok() || status > kMaxEmbedStatus || strategy > kMaxStrategy ||
      cache_hit > 1 || context_hit > 1 || repaired > 1 || quarantined > 1)
    return false;
  e.status = static_cast<service::EmbedStatus>(status);
  e.strategy_used = static_cast<service::Strategy>(strategy);
  e.cache_hit = cache_hit != 0;
  e.context_cache_hit = context_hit != 0;
  e.repaired = repaired != 0;
  e.quarantined = quarantined != 0;
  e.ring_length = r.u64();
  e.lower_bound = r.u64();
  e.upper_bound = r.u64();
  e.compute_micros = r.f64();
  e.latency_micros = r.f64();
  e.error = r.str();
  const std::uint8_t has_ring = r.u8();
  if (!r.ok() || has_ring > 1) return false;
  e.has_ring = has_ring != 0;
  if (e.has_ring) e.ring = r.words();
  if (!r.ok()) return false;
  *out = std::move(e);
  return true;
}

// --- STATS ------------------------------------------------------------------

void encode_stats(WireWriter& w, const WireStats& stats) {
  const service::EngineStatsSnapshot& e = stats.engine;
  w.u64(e.serve.queries);
  w.u64(e.serve.result_hits);
  w.u64(e.serve.context_hits);
  w.u64(e.serve.context_misses);
  w.u64(e.cache.hits);
  w.u64(e.cache.misses);
  w.u64(e.cache.evictions);
  w.u64(e.cache.entries);
  w.u64(e.contexts.hits);
  w.u64(e.contexts.misses);
  w.u64(e.contexts.entries);
  w.u64(e.validation.checked);
  w.u64(e.validation.violations);
  const WireServerStats& s = stats.server;
  w.u64(s.accepted);
  w.u64(s.connections);
  w.u64(s.frames_in);
  w.u64(s.frames_out);
  w.u64(s.solves);
  w.u64(s.overloaded);
  w.u64(s.timeouts);
  w.u64(s.bad_frames);
  w.u64(s.shutdown_rejects);
  w.u8(s.draining ? 1 : 0);
  w.u8(stats.has_session ? 1 : 0);
  if (stats.has_session) {
    w.u64(stats.session.adds);
    w.u64(stats.session.removes);
    w.u64(stats.session.noop_mutations);
    w.u64(stats.session.solves);
    w.u64(stats.session.memoized);
    w.u64(stats.session.result_cache_hits);
    w.f64(stats.session.solve_micros_total);
    w.u64(stats.repair.spliced);
    w.u64(stats.repair.fell_back);
    w.u64(stats.repair.oracle_rejections);
    w.f64(stats.repair.repair_micros_total);
  }
}

bool decode_stats(WireReader& r, WireStats* out) {
  WireStats s;
  s.engine.serve.queries = r.u64();
  s.engine.serve.result_hits = r.u64();
  s.engine.serve.context_hits = r.u64();
  s.engine.serve.context_misses = r.u64();
  s.engine.cache.hits = r.u64();
  s.engine.cache.misses = r.u64();
  s.engine.cache.evictions = r.u64();
  s.engine.cache.entries = r.u64();
  s.engine.contexts.hits = r.u64();
  s.engine.contexts.misses = r.u64();
  s.engine.contexts.entries = r.u64();
  s.engine.validation.checked = r.u64();
  s.engine.validation.violations = r.u64();
  s.server.accepted = r.u64();
  s.server.connections = r.u64();
  s.server.frames_in = r.u64();
  s.server.frames_out = r.u64();
  s.server.solves = r.u64();
  s.server.overloaded = r.u64();
  s.server.timeouts = r.u64();
  s.server.bad_frames = r.u64();
  s.server.shutdown_rejects = r.u64();
  const std::uint8_t draining = r.u8();
  const std::uint8_t has_session = r.u8();
  if (!r.ok() || draining > 1 || has_session > 1) return false;
  s.server.draining = draining != 0;
  s.has_session = has_session != 0;
  if (s.has_session) {
    s.session.adds = r.u64();
    s.session.removes = r.u64();
    s.session.noop_mutations = r.u64();
    s.session.solves = r.u64();
    s.session.memoized = r.u64();
    s.session.result_cache_hits = r.u64();
    s.session.solve_micros_total = r.f64();
    s.repair.spliced = r.u64();
    s.repair.fell_back = r.u64();
    s.repair.oracle_rejections = r.u64();
    s.repair.repair_micros_total = r.f64();
  }
  if (!r.exhausted()) return false;
  *out = s;
  return true;
}

// --- FrameParser ------------------------------------------------------------

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before it dominates the buffer.
  if (off_ > 0 && (off_ >= buf_.size() || off_ > 64 * 1024)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameParser::Result FrameParser::next(Frame* frame) {
  if (error_ != FrameError::kNone) return Result::kError;
  const std::span<const std::uint8_t> view(buf_.data() + off_,
                                           buf_.size() - off_);
  FrameError err = FrameError::kNone;
  const std::optional<FrameHeader> header = decode_header(view, &err);
  if (!header) {
    if (err != FrameError::kNone) {
      error_ = err;
      return Result::kError;
    }
    return Result::kNeedMore;
  }
  if (view.size() - kHeaderSize < header->payload_len) return Result::kNeedMore;
  frame->header = *header;
  frame->payload.assign(view.begin() + kHeaderSize,
                        view.begin() + kHeaderSize + header->payload_len);
  off_ += kHeaderSize + header->payload_len;
  return Result::kFrame;
}

}  // namespace dbr::net
