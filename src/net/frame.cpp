#include "psl/net/frame.hpp"

#include <cstring>

namespace psl::net {

namespace {

std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

}  // namespace

// --- header check -----------------------------------------------------------

util::Result<FrameHeader> decode_header(std::span<const std::uint8_t> bytes,
                                        std::size_t max_payload_bytes) {
  const std::uint8_t* h = bytes.data();
  if (load_u32(h) != kMagic) {
    return util::make_error("net.frame.magic", "frame does not start with PSLN");
  }
  FrameHeader header;
  header.version = h[4];
  header.type = h[5];
  header.flags = load_u16(h + 6);
  header.id = load_u32(h + 8);
  header.payload_len = load_u32(h + 12);
  if (header.version != kProtocolVersion) {
    return util::make_error("net.frame.version",
                            "unsupported protocol version " + std::to_string(header.version));
  }
  if (header.flags != 0) {
    return util::make_error("net.frame.flags", "reserved flag bits set");
  }
  if (static_cast<std::uint64_t>(header.payload_len) > max_payload_bytes) {
    return util::make_error("net.frame.oversize",
                            "declared payload of " + std::to_string(header.payload_len) +
                                " bytes exceeds the " + std::to_string(max_payload_bytes) +
                                "-byte frame cap");
  }
  return header;
}

bool decode_datagram(std::span<const std::uint8_t> datagram, Frame& out) {
  if (datagram.size() < kHeaderBytes) return false;
  auto header = decode_header(datagram, kUdpMaxDatagramBytes);
  if (!header.ok() || datagram.size() != kHeaderBytes + header->payload_len) return false;
  out.header = *header;
  out.payload = datagram.subspan(kHeaderBytes);
  return true;
}

// --- FrameDecoder -----------------------------------------------------------

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes) : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (failed_ || bytes.empty()) return;
  // Compact consumed bytes away first so frame spans returned by next()
  // stay valid between feeds and the buffer's high-water mark tracks the
  // largest in-flight frame, not the whole connection history.
  if (read_off_ > 0) {
    const std::size_t live = buffer_.size() - read_off_;
    if (live > 0) std::memmove(buffer_.data(), buffer_.data() + read_off_, live);
    buffer_.resize(live);
    read_off_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::Next FrameDecoder::next(Frame& out) {
  if (failed_) return Next::kError;
  const std::size_t avail = buffer_.size() - read_off_;
  if (avail < kHeaderBytes) return Next::kNeedMore;

  const std::uint8_t* h = buffer_.data() + read_off_;
  auto header = decode_header({h, kHeaderBytes}, max_frame_bytes_);
  if (!header.ok()) {
    failed_ = true;
    error_ = header.error();
    return Next::kError;
  }
  if (avail < kHeaderBytes + header->payload_len) return Next::kNeedMore;

  out.header = *header;
  out.payload = std::span<const std::uint8_t>(h + kHeaderBytes, header->payload_len);
  read_off_ += kHeaderBytes + header->payload_len;
  return Next::kFrame;
}

// --- encode helpers ---------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_raw(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void put_str16(std::vector<std::uint8_t>& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

std::size_t begin_frame(std::vector<std::uint8_t>& out, std::uint8_t type, std::uint32_t id) {
  const std::size_t frame_begin = out.size();
  put_u32(out, kMagic);
  put_u8(out, kProtocolVersion);
  put_u8(out, type);
  put_u16(out, 0);  // flags
  put_u32(out, id);
  put_u32(out, 0);  // payload_len, patched by end_frame
  return frame_begin;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t frame_begin) {
  const std::size_t payload_len = out.size() - frame_begin - kHeaderBytes;
  std::uint8_t* len = out.data() + frame_begin + 12;
  len[0] = static_cast<std::uint8_t>(payload_len);
  len[1] = static_cast<std::uint8_t>(payload_len >> 8);
  len[2] = static_cast<std::uint8_t>(payload_len >> 16);
  len[3] = static_cast<std::uint8_t>(payload_len >> 24);
}

void encode_frame(std::vector<std::uint8_t>& out, std::uint8_t type, std::uint32_t id,
                  std::span<const std::uint8_t> payload) {
  const std::size_t frame_begin = begin_frame(out, type, id);
  put_raw(out, payload);
  end_frame(out, frame_begin);
}

// --- WireReader -------------------------------------------------------------

bool WireReader::u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = data_[off_++];
  return true;
}

bool WireReader::u16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = load_u16(data_.data() + off_);
  off_ += 2;
  return true;
}

bool WireReader::u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = load_u32(data_.data() + off_);
  off_ += 4;
  return true;
}

bool WireReader::u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = load_u64(data_.data() + off_);
  off_ += 8;
  return true;
}

bool WireReader::str16(std::string_view& v) {
  std::uint16_t len = 0;
  if (remaining() < 2) return false;
  len = load_u16(data_.data() + off_);
  if (remaining() < 2u + len) return false;
  off_ += 2;
  v = std::string_view(reinterpret_cast<const char*>(data_.data() + off_), len);
  off_ += len;
  return true;
}

bool WireReader::raw(std::size_t n, std::span<const std::uint8_t>& v) {
  if (remaining() < n) return false;
  v = data_.subspan(off_, n);
  off_ += n;
  return true;
}

// --- request parsers --------------------------------------------------------

bool parse_same_site_request(std::span<const std::uint8_t> payload,
                             std::vector<std::pair<std::string_view, std::string_view>>& out) {
  out.clear();
  WireReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.u32(count)) return false;
  // Each pair needs at least two length prefixes: a count the payload could
  // not possibly hold is rejected before any reserve.
  if (static_cast<std::uint64_t>(count) * 4 > reader.remaining()) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string_view a, b;
    if (!reader.str16(a) || !reader.str16(b)) return false;
    out.emplace_back(a, b);
  }
  return reader.done();
}

bool parse_match_request(std::span<const std::uint8_t> payload,
                         std::vector<std::string_view>& out) {
  out.clear();
  WireReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.u32(count)) return false;
  if (static_cast<std::uint64_t>(count) * 2 > reader.remaining()) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string_view host;
    if (!reader.str16(host)) return false;
    out.push_back(host);
  }
  return reader.done();
}

bool parse_match_at_request(std::span<const std::uint8_t> payload, std::int64_t& date_days,
                            std::vector<std::string_view>& out) {
  out.clear();
  WireReader reader(payload);
  std::uint64_t raw_date = 0;
  std::uint32_t count = 0;
  if (!reader.u64(raw_date) || !reader.u32(count)) return false;
  if (static_cast<std::uint64_t>(count) * 2 > reader.remaining()) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string_view host;
    if (!reader.str16(host)) return false;
    out.push_back(host);
  }
  if (!reader.done()) return false;
  date_days = static_cast<std::int64_t>(raw_date);
  return true;
}

bool parse_divergence_request(std::span<const std::uint8_t> payload, std::string_view& host) {
  WireReader reader(payload);
  return reader.str16(host) && reader.done();
}

bool parse_ingest_request(std::span<const std::uint8_t> payload,
                          std::vector<WireIngestRecord>& out) {
  out.clear();
  WireReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.u32(count)) return false;
  // Each record needs two length prefixes plus a timestamp: a count the
  // payload could not possibly hold is rejected before any reserve.
  if (static_cast<std::uint64_t>(count) * 12 > reader.remaining()) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireIngestRecord record;
    if (!reader.str16(record.page_host) || !reader.str16(record.resource_host) ||
        !reader.u64(record.timestamp_ms)) {
      return false;
    }
    out.push_back(record);
  }
  return reader.done();
}

bool parse_census_request(std::span<const std::uint8_t> payload, std::uint32_t& top_k) {
  WireReader reader(payload);
  return reader.u32(top_k) && reader.done();
}

void put_census(std::vector<std::uint8_t>& out, const WireCensus& census) {
  put_u64(out, census.generation);
  put_u64(out, census.records);
  put_u64(out, census.first_party);
  put_u64(out, census.third_party);
  put_u64(out, census.unique_hosts);
  put_u64(out, census.sites_formed);
  put_u64(out, census.misbound_hosts);
  put_u64(out, census.dropped);
  put_u64(out, census.first_timestamp_ms);
  put_u64(out, census.last_timestamp_ms);
  put_u64(out, census.state_bytes);
  put_u32(out, static_cast<std::uint32_t>(census.etlds.size()));
  for (const WireCensus::EtldRow& row : census.etlds) {
    put_str16(out, row.etld);
    put_u64(out, row.misbound);
  }
  put_u32(out, static_cast<std::uint32_t>(census.trackers.size()));
  for (const WireCensus::TrackerRow& row : census.trackers) {
    put_str16(out, row.domain);
    put_u64(out, row.requests);
    put_u64(out, row.requests_err);
    put_u64(out, row.reach);
    put_u64(out, row.reach_err);
  }
}

bool parse_census(std::span<const std::uint8_t> payload, WireCensus& out) {
  out = WireCensus{};
  WireReader reader(payload);
  if (!reader.u64(out.generation) || !reader.u64(out.records) || !reader.u64(out.first_party) ||
      !reader.u64(out.third_party) || !reader.u64(out.unique_hosts) ||
      !reader.u64(out.sites_formed) || !reader.u64(out.misbound_hosts) ||
      !reader.u64(out.dropped) || !reader.u64(out.first_timestamp_ms) ||
      !reader.u64(out.last_timestamp_ms) || !reader.u64(out.state_bytes)) {
    return false;
  }
  std::uint32_t etld_count = 0;
  if (!reader.u32(etld_count)) return false;
  if (static_cast<std::uint64_t>(etld_count) * 10 > reader.remaining()) return false;
  out.etlds.reserve(etld_count);
  for (std::uint32_t i = 0; i < etld_count; ++i) {
    std::string_view etld;
    WireCensus::EtldRow row;
    if (!reader.str16(etld) || !reader.u64(row.misbound)) return false;
    row.etld.assign(etld);
    out.etlds.push_back(std::move(row));
  }
  std::uint32_t tracker_count = 0;
  if (!reader.u32(tracker_count)) return false;
  if (static_cast<std::uint64_t>(tracker_count) * 34 > reader.remaining()) return false;
  out.trackers.reserve(tracker_count);
  for (std::uint32_t i = 0; i < tracker_count; ++i) {
    std::string_view domain;
    WireCensus::TrackerRow row;
    if (!reader.str16(domain) || !reader.u64(row.requests) || !reader.u64(row.requests_err) ||
        !reader.u64(row.reach) || !reader.u64(row.reach_err)) {
      return false;
    }
    row.domain.assign(domain);
    out.trackers.push_back(std::move(row));
  }
  return reader.done();
}

void put_generation_changed(std::vector<std::uint8_t>& out, const WireGenerationChanged& push) {
  put_u64(out, push.generation);
  put_u64(out, push.rule_count);
  put_u64(out, static_cast<std::uint64_t>(push.source_date_days));
  put_u64(out, static_cast<std::uint64_t>(push.rule_delta));
}

bool parse_generation_changed(std::span<const std::uint8_t> payload, WireGenerationChanged& out) {
  WireReader reader(payload);
  std::uint64_t date = 0;
  std::uint64_t delta = 0;
  if (!reader.u64(out.generation) || !reader.u64(out.rule_count) || !reader.u64(date) ||
      !reader.u64(delta) || !reader.done()) {
    return false;
  }
  out.source_date_days = static_cast<std::int64_t>(date);
  out.rule_delta = static_cast<std::int64_t>(delta);
  return true;
}

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBackpressure: return "backpressure";
    case Status::kMalformed: return "malformed";
    case Status::kUnsupported: return "unsupported";
    case Status::kReloadRejected: return "reload-rejected";
    case Status::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

}  // namespace psl::net
