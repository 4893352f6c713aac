// psl::net wire protocol — the framing layer under net::Server/net::Client.
//
// Every message on a psld connection is one length-prefixed binary frame:
//
//   offset  size  field
//        0     4  magic 0x4E4C5350 ("PSLN" when read as little-endian bytes)
//        4     1  protocol version (currently 1)
//        5     1  frame type (request 0x01..0x08; response = request | 0x80;
//                 0x09 is server-pushed, see below)
//        6     2  flags (reserved; MUST be zero, receivers reject nonzero)
//        8     4  request id (chosen by the client, echoed in the response)
//       12     4  payload length in bytes
//
// All integers are little-endian. The payload follows immediately; a frame
// is complete at header + payload_length bytes. Request types:
//
//   0x01 ping             payload echoed back verbatim
//   0x02 same_site_batch  u32 count, then count x (str16 a, str16 b)
//   0x03 match_batch      u32 count, then count x str16 host
//   0x04 reload           payload = serialized psl::snapshot bytes
//   0x05 stats            empty payload
//   0x06 match_at         u64 date (days since 1970-01-01, two's
//                         complement), u32 count, then count x str16 host —
//                         time-travel: answers come from the stored list
//                         version in effect at that date (psl::store)
//   0x07 divergence       str16 host — the host's registrable-domain
//                         history across every stored list version
//   0x08 subscribe        empty payload — register this connection for
//                         generation_changed pushes until it closes
//   0x0A ingest_batch     u32 count, then count x (str16 page_host,
//                         str16 resource_host, u64 timestamp_ms) — stream
//                         one batch of observed requests into the serving
//                         generation's analytics census (psld --analytics).
//                         Status is per-BATCH: the whole batch lands in one
//                         generation or is rejected whole
//   0x0B census_query     u32 top_k (0 = server default) — snapshot the
//                         serving generation's census aggregates
//
// One frame type flows the OTHER way. 0x09 generation_changed is pushed by
// the server to every subscribed connection when a reload installs a new
// list generation; it is NOT a response (no response bit, request id 0,
// no status byte) and the client must not reply to it:
//
//   0x09 generation_changed  u64 new generation, u64 rule_count, u64 source
//                            date (days since 1970-01-01, two's complement),
//                            i64 rule-count delta vs. the previously pushed
//                            generation (two's complement; the rule-delta
//                            summary)
//
// (str16 = u16 length + that many bytes, so hostnames cap at 65535 bytes —
// far above any valid DNS name.) Every response payload begins with one
// status byte (Status below); only a kOk response carries a body:
//
//   ping       the request payload, echoed
//   same_site  u32 count, then count x u8 (1 = same site)
//   match      u32 count, then count x (str16 public_suffix,
//              str16 registrable_domain, u8 flags: bit0 = explicit rule,
//              bit1 = private section)
//   reload     u64 new generation
//   stats      u64 generation, u64 rule_count, u64 source date (days since
//              1970-01-01, two's complement), u32 open connections,
//              u32 engine queue depth, u8 analytics_enabled,
//              u64 analytics records ingested, u64 analytics drops,
//              u64 census queries answered, u64 census state bytes (the
//              analytics block is zeroed when --analytics is off)
//   match_at   u64 resolved version source date (days, two's complement),
//              u64 that version's rule_count, u32 count, then count x
//              (str16 public_suffix, str16 registrable_domain, u8 flags:
//              bit0 = explicit rule, bit1 = private section)
//   divergence u32 range_count, then count x (u64 first date, u64 last
//              date — both days since 1970-01-01, two's complement —
//              str16 registrable_domain, empty = none); ranges partition
//              the store's whole version span, oldest first
//   subscribe  u64 current generation — the subscriber converges
//              immediately instead of waiting for the first push
//   ingest     u64 generation the batch was attributed to (exactly one —
//              the engine pins one State per batch), u32 records accepted
//   census     u64 generation, u64 records, u64 first_party,
//              u64 third_party, u64 unique_hosts, u64 sites_formed,
//              u64 misbound_hosts, u64 dropped, u64 first_timestamp_ms,
//              u64 last_timestamp_ms, u64 state_bytes, u32 etld_count,
//              count x (str16 etld, u64 misbound), u32 tracker_count,
//              count x (str16 domain, u64 requests, u64 requests_err,
//              u64 reach, u64 reach_err). Row order is deterministic:
//              eTLDs by (misbound desc, etld asc), trackers by (reach
//              desc, requests desc, domain asc). The sketch error-bound
//              contract: true requests in [requests - requests_err,
//              requests + requests_err] (space-saving merge), true reach
//              in [reach - reach_err, reach] plus count-min's
//              overestimate-only slack — see docs/API.md "Analytics"
//
// ingest_batch and census_query require the server to carry an analytics
// census (psld --analytics): without one they answer kUnsupported with
// detail "analytics.none".
//
// match_at and divergence require the server to carry a psl::store
// (psld --store): without one they answer kUnsupported with detail
// "store.none"; a date before the first stored version answers kMalformed
// with detail "store.no-version".
//
// Non-kOk responses carry str16 detail (a stable error code such as
// "snapshot.checksum" for rejected reloads; may be empty). Status is
// per-REQUEST: a kBackpressure or kMalformed response leaves the connection
// healthy. Frame-level violations (bad magic/version/flags, payload length
// over the cap) are per-CONNECTION: the stream cannot be resynchronized, so
// the peer closes it.
//
// Versioning rules: the magic and the version byte never move. A receiver
// rejects versions it does not speak (net.frame.version) instead of
// guessing; additive evolution happens through new frame types (unknown
// types get a kUnsupported response, not a disconnect) — existing payload
// layouts only ever grow by appending fields (the stats analytics block is
// the one such revision so far), never by moving existing ones.
//
// FrameDecoder is incremental: feed() whatever the socket produced, call
// next() until kNeedMore. Partial frames are not errors — they simply wait
// for more bytes (the server's read timeout bounds how long). The decoder's
// buffer grows to the high-water frame size once and is then reused, so the
// steady-state decode path performs no heap allocation; same for the
// encode helpers, which append into caller-owned reusable buffers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psl/util/result.hpp"

namespace psl::net {

inline constexpr std::uint32_t kMagic = 0x4E4C5350u;  // "PSLN"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;
inline constexpr std::uint8_t kResponseBit = 0x80;
/// One UDP datagram carries at most one PSLN frame of this many bytes, both
/// directions (header included) — comfortably under the 64 KiB UDP payload
/// ceiling. See ServerOptions::enable_udp for the fast-path contract.
inline constexpr std::size_t kUdpMaxDatagramBytes = 60 * 1024;

/// The single source of truth for PSLN frame types. Server, client, psld
/// and psltool all speak through this enum (and the typed begin_frame /
/// encode_frame overloads below) — adding a frame type means adding an
/// enumerator here and nothing byte-level anywhere else.
enum class FrameType : std::uint8_t {
  kPing = 0x01,
  kSameSiteBatch = 0x02,
  kMatchBatch = 0x03,
  kReload = 0x04,
  kStats = 0x05,
  kMatchAt = 0x06,
  kDivergence = 0x07,
  kSubscribe = 0x08,
  /// Server-pushed on generation change; never sent by clients, never
  /// carries the response bit, never answered.
  kGenerationChanged = 0x09,
  kIngestBatch = 0x0A,
  kCensusQuery = 0x0B,
};

/// The wire type byte of the response to a `type` request.
constexpr std::uint8_t response_type(FrameType type) noexcept {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(type) | 0x80u);
}

/// First byte of every response payload.
enum class Status : std::uint8_t {
  kOk = 0,
  kBackpressure = 1,  ///< engine queue full; nothing was computed — retry
  kMalformed = 2,     ///< request payload did not parse; connection lives on
  kUnsupported = 3,   ///< unknown frame type for this protocol version
  kReloadRejected = 4,///< snapshot validation failed; previous list serving
  kShuttingDown = 5,  ///< server is draining; no new work accepted
};

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::uint32_t id = 0;
  std::uint32_t payload_len = 0;
};

/// One decoded frame. `payload` points into the decoder's buffer and is
/// valid until the next feed() call.
struct Frame {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

/// The one stateless header check, shared by FrameDecoder (streams) and
/// decode_datagram (UDP): magic, version, zero flags, and a payload length
/// of at most `max_payload_bytes`. Reads the first kHeaderBytes of `bytes`
/// (precondition: that many are present). Error codes net.frame.magic,
/// net.frame.version, net.frame.flags, net.frame.oversize.
util::Result<FrameHeader> decode_header(std::span<const std::uint8_t> bytes,
                                        std::size_t max_payload_bytes);

/// Decode the one frame a UDP datagram must hold: a header that passes
/// decode_header (payload cap kUdpMaxDatagramBytes) and a payload that fills
/// the rest of the datagram exactly. Accepts exactly the datagrams a fresh
/// FrameDecoder(kUdpMaxDatagramBytes) turns into one frame with nothing left
/// buffered. `out.payload` points into `datagram`.
bool decode_datagram(std::span<const std::uint8_t> datagram, Frame& out);

/// Incremental frame decoder. Tolerates arbitrary read fragmentation;
/// rejects protocol violations with a sticky error (the connection must be
/// closed — the stream cannot be trusted past the first bad header).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Append raw socket bytes. No-op once the decoder has errored.
  void feed(std::span<const std::uint8_t> bytes);

  enum class Next { kFrame, kNeedMore, kError };
  /// Extract the next complete frame, if any. On kError the decoder is
  /// poisoned; error() describes the violation (codes net.frame.magic,
  /// net.frame.version, net.frame.flags, net.frame.oversize).
  Next next(Frame& out);

  const util::Error& error() const noexcept { return error_; }
  bool failed() const noexcept { return failed_; }
  /// Bytes buffered but not yet returned as frames (> 0 = mid-frame).
  std::size_t buffered() const noexcept { return buffer_.size() - read_off_; }
  std::size_t max_frame_bytes() const noexcept { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t read_off_ = 0;
  bool failed_ = false;
  util::Error error_;
};

// --- encode helpers ---------------------------------------------------------
//
// Frames are appended to a caller-owned buffer whose capacity is reused
// across frames (the no-allocation steady-state contract). begin_frame
// writes a header with payload_len 0 and returns its offset; append payload
// bytes with the put_* helpers; end_frame patches the length back in.

std::size_t begin_frame(std::vector<std::uint8_t>& out, std::uint8_t type, std::uint32_t id);
void end_frame(std::vector<std::uint8_t>& out, std::size_t frame_begin);

/// Typed variants — the ones production code uses. The raw std::uint8_t
/// overloads above exist for tests and fuzzers that must construct hostile
/// type bytes.
inline std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type, std::uint32_t id) {
  return begin_frame(out, static_cast<std::uint8_t>(type), id);
}
/// Start the response frame for a `type` request (type byte | response bit).
inline std::size_t begin_response_frame(std::vector<std::uint8_t>& out, FrameType type,
                                        std::uint32_t id) {
  return begin_frame(out, response_type(type), id);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_raw(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes);
/// u16 length prefix + bytes. Precondition: s.size() <= 65535.
void put_str16(std::vector<std::uint8_t>& out, std::string_view s);

/// Convenience: one complete frame with a ready payload.
void encode_frame(std::vector<std::uint8_t>& out, std::uint8_t type, std::uint32_t id,
                  std::span<const std::uint8_t> payload);
inline void encode_frame(std::vector<std::uint8_t>& out, FrameType type, std::uint32_t id,
                         std::span<const std::uint8_t> payload) {
  encode_frame(out, static_cast<std::uint8_t>(type), id, payload);
}

// --- payload readers --------------------------------------------------------

/// Bounds-checked little-endian reader over one payload span. Every getter
/// returns false (and moves nothing) when the remaining bytes are too short.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& v);
  bool u16(std::uint16_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  /// View into the underlying payload (no copy).
  bool str16(std::string_view& v);
  bool raw(std::size_t n, std::span<const std::uint8_t>& v);

  std::size_t remaining() const noexcept { return data_.size() - off_; }
  bool done() const noexcept { return off_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
};

// Request parsers used by the server (and the fuzz harness). `out` is
// cleared and refilled; its capacity is reused, and the parsed views point
// into `payload`. Returns false on any structural violation (short counts,
// trailing bytes, count larger than the payload could possibly hold).
bool parse_same_site_request(std::span<const std::uint8_t> payload,
                             std::vector<std::pair<std::string_view, std::string_view>>& out);
bool parse_match_request(std::span<const std::uint8_t> payload,
                         std::vector<std::string_view>& out);
/// match_at: the leading date lands in `date_days`, the hosts in `out`.
bool parse_match_at_request(std::span<const std::uint8_t> payload, std::int64_t& date_days,
                            std::vector<std::string_view>& out);
/// divergence: the single host operand.
bool parse_divergence_request(std::span<const std::uint8_t> payload, std::string_view& host);

/// One ingest_batch request record; views point into the request payload.
struct WireIngestRecord {
  std::string_view page_host;
  std::string_view resource_host;
  std::uint64_t timestamp_ms = 0;
};
/// ingest_batch request: u32 count then the records.
bool parse_ingest_request(std::span<const std::uint8_t> payload,
                          std::vector<WireIngestRecord>& out);
/// census_query request: exactly one u32 top_k (0 = server default).
bool parse_census_request(std::span<const std::uint8_t> payload, std::uint32_t& top_k);

/// One match_batch response entry, owned (the client's return type).
struct WireMatch {
  std::string public_suffix;
  std::string registrable_domain;  ///< empty when the host IS a public suffix
  bool matched_explicit_rule = false;
  bool private_section = false;
};

/// match_at response body (the client's return type): which stored version
/// answered, plus one WireMatch per requested host.
struct WireMatchAt {
  std::int64_t version_date_days = 0;  ///< resolved version's source date
  std::uint64_t rule_count = 0;        ///< that version's rule count
  std::vector<WireMatch> matches;
};

/// One divergence response range: [first_date, last_date] of consecutive
/// versions over which the host's registrable domain was constant.
struct WireDivergenceRange {
  std::int64_t first_date_days = 0;
  std::int64_t last_date_days = 0;
  std::string registrable_domain;  ///< empty when the host had none

  friend bool operator==(const WireDivergenceRange&, const WireDivergenceRange&) = default;
};

/// stats response body. The analytics block was appended for protocol
/// version 1 servers that carry a census (servers without one send it
/// zeroed with analytics_enabled = 0 — the fields are always present).
struct WireStats {
  std::uint64_t generation = 0;
  std::uint64_t rule_count = 0;
  std::int64_t source_date_days = 0;
  std::uint32_t connections = 0;
  std::uint32_t queue_depth = 0;
  std::uint8_t analytics_enabled = 0;
  std::uint64_t analytics_records = 0;
  std::uint64_t analytics_dropped = 0;
  std::uint64_t analytics_census_queries = 0;
  std::uint64_t analytics_state_bytes = 0;
};

/// ingest_batch response body (the client's return type).
struct WireIngestAck {
  std::uint64_t generation = 0;  ///< every record in the batch landed here
  std::uint32_t accepted = 0;

  friend bool operator==(const WireIngestAck&, const WireIngestAck&) = default;
};

/// census_query response body (the client's return type). Semantics and
/// error-bound contracts mirror analytics::CensusSnapshot field for field.
struct WireCensus {
  std::uint64_t generation = 0;
  std::uint64_t records = 0;
  std::uint64_t first_party = 0;
  std::uint64_t third_party = 0;
  std::uint64_t unique_hosts = 0;
  std::uint64_t sites_formed = 0;
  std::uint64_t misbound_hosts = 0;
  std::uint64_t dropped = 0;
  std::uint64_t first_timestamp_ms = 0;
  std::uint64_t last_timestamp_ms = 0;
  std::uint64_t state_bytes = 0;

  struct EtldRow {
    std::string etld;
    std::uint64_t misbound = 0;
    friend bool operator==(const EtldRow&, const EtldRow&) = default;
  };
  struct TrackerRow {
    std::string domain;
    std::uint64_t requests = 0;
    std::uint64_t requests_err = 0;
    std::uint64_t reach = 0;
    std::uint64_t reach_err = 0;
    friend bool operator==(const TrackerRow&, const TrackerRow&) = default;
  };
  std::vector<EtldRow> etlds;
  std::vector<TrackerRow> trackers;

  friend bool operator==(const WireCensus&, const WireCensus&) = default;
};

/// Encode/decode the census response BODY (after the status byte; the frame
/// header and status are the caller's job). parse returns false on short
/// payloads, trailing bytes, or impossible row counts.
void put_census(std::vector<std::uint8_t>& out, const WireCensus& census);
bool parse_census(std::span<const std::uint8_t> payload, WireCensus& out);

/// generation_changed push payload (no status byte — pushes are not
/// responses). `rule_delta` is the rule-count change versus the generation
/// previously pushed on this connection (the rule-delta summary).
struct WireGenerationChanged {
  std::uint64_t generation = 0;
  std::uint64_t rule_count = 0;
  std::int64_t source_date_days = 0;
  std::int64_t rule_delta = 0;

  friend bool operator==(const WireGenerationChanged&, const WireGenerationChanged&) = default;
};

/// Encode/decode the generation_changed payload body (the frame header is
/// the caller's job). parse returns false on short or over-long payloads.
void put_generation_changed(std::vector<std::uint8_t>& out, const WireGenerationChanged& push);
bool parse_generation_changed(std::span<const std::uint8_t> payload, WireGenerationChanged& out);

const char* status_name(Status s) noexcept;

}  // namespace psl::net
