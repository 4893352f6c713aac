// Fuzz harness for the PSLN frame decoder and request-payload parsers.
//
// Invariants:
//   - arbitrary bytes, fed to FrameDecoder in arbitrary chunk sizes, never
//     crash: every outcome is a complete frame, kNeedMore, or a sticky
//     kError whose code names the violation (no UB — the ASan/UBSan smoke
//     job runs this harness)
//   - after kError the decoder stays poisoned: feed() is a no-op and next()
//     keeps returning kError
//   - any frame the decoder EMITS satisfies the framing contract (magic
//     version/flags already checked, payload length within the cap and
//     exactly as declared)
//   - the batch-request parsers accept or reject emitted payloads without
//     reading out of bounds; accepted batches contain only views into the
//     payload
//   - decode_datagram (the UDP path) accepts exactly the buffers a fresh
//     FrameDecoder(kUdpMaxDatagramBytes), fed the whole buffer, turns into
//     one frame with nothing left buffered, and decodes the same header and
//     payload bytes — checked on the raw input and on near-valid frames
//
// Chunked re-feeding is the point: the first input byte seeds the chunk
// size pattern so coverage includes 1-byte drip feeds, header-boundary
// splits, and whole-buffer gulps of the same stream.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzz_common.hpp"
#include "psl/net/frame.hpp"

namespace {

/// A tiny cap keeps the oversize gate reachable from short fuzz inputs.
constexpr std::size_t kFuzzMaxFrame = 4096;

void check_emitted_frame(const psl::net::Frame& frame) {
  if (frame.header.version != psl::net::kProtocolVersion) __builtin_trap();
  if (frame.header.flags != 0) __builtin_trap();
  if (frame.payload.size() != frame.header.payload_len) __builtin_trap();
  if (frame.payload.size() > kFuzzMaxFrame) __builtin_trap();

  // Run both request parsers over the payload regardless of the frame type
  // byte — the server only dispatches known types, but the parsers
  // themselves must hold for any bytes.
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  if (psl::net::parse_same_site_request(frame.payload, pairs)) {
    for (const auto& [a, b] : pairs) {
      const auto* begin = frame.payload.data();
      const auto* end = begin + frame.payload.size();
      const auto* pa = reinterpret_cast<const std::uint8_t*>(a.data());
      const auto* pb = reinterpret_cast<const std::uint8_t*>(b.data());
      if (!a.empty() && (pa < begin || pa + a.size() > end)) __builtin_trap();
      if (!b.empty() && (pb < begin || pb + b.size() > end)) __builtin_trap();
    }
  }
  std::vector<std::string_view> hosts;
  if (psl::net::parse_match_request(frame.payload, hosts)) {
    for (const std::string_view host : hosts) {
      const auto* begin = frame.payload.data();
      const auto* end = begin + frame.payload.size();
      const auto* ph = reinterpret_cast<const std::uint8_t*>(host.data());
      if (!host.empty() && (ph < begin || ph + host.size() > end)) __builtin_trap();
    }
  }
}

/// Differential check of the two header paths: the datagram decoder must
/// agree with a stream decoder fed the same bytes in one piece.
void check_datagram(std::span<const std::uint8_t> bytes) {
  psl::net::Frame datagram;
  const bool accepted = psl::net::decode_datagram(bytes, datagram);

  psl::net::FrameDecoder stream(psl::net::kUdpMaxDatagramBytes);
  stream.feed(bytes);
  psl::net::Frame streamed;
  const bool one_frame =
      stream.next(streamed) == psl::net::FrameDecoder::Next::kFrame && stream.buffered() == 0;
  if (accepted != one_frame) __builtin_trap();
  if (!accepted) return;

  const psl::net::FrameHeader& a = datagram.header;
  const psl::net::FrameHeader& b = streamed.header;
  if (a.version != b.version || a.type != b.type || a.flags != b.flags || a.id != b.id ||
      a.payload_len != b.payload_len) {
    __builtin_trap();
  }
  if (!std::equal(datagram.payload.begin(), datagram.payload.end(), streamed.payload.begin(),
                  streamed.payload.end())) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t chunk_seed = data[0];
  ++data;
  --size;

  check_datagram({data, size});

  psl::net::FrameDecoder decoder(kFuzzMaxFrame);
  psl::net::Frame frame;
  std::size_t off = 0;
  std::size_t round = 0;
  bool saw_error = false;
  while (off < size) {
    // Chunk sizes cycle 1 / seed-derived / rest-of-buffer.
    std::size_t chunk;
    switch (round++ % 3) {
      case 0:
        chunk = 1;
        break;
      case 1:
        chunk = 1 + (static_cast<std::size_t>(chunk_seed) + round) % 37;
        break;
      default:
        chunk = size - off;
        break;
    }
    if (chunk > size - off) chunk = size - off;
    decoder.feed({data + off, chunk});
    off += chunk;

    for (;;) {
      const auto outcome = decoder.next(frame);
      if (outcome == psl::net::FrameDecoder::Next::kFrame) {
        if (saw_error) __builtin_trap();  // poisoned decoders never emit
        check_emitted_frame(frame);
        continue;
      }
      if (outcome == psl::net::FrameDecoder::Next::kError) {
        if (decoder.error().code.empty()) __builtin_trap();
        if (!decoder.failed()) __builtin_trap();
        saw_error = true;
      }
      break;
    }
  }

  // Sticky-error contract: once failed, feed() no-ops and next() keeps
  // reporting kError.
  if (saw_error) {
    const std::uint8_t probe[psl::net::kHeaderBytes * 2] = {};
    decoder.feed({probe, sizeof probe});
    if (decoder.next(frame) != psl::net::FrameDecoder::Next::kError) __builtin_trap();
  }

  // Round-trip: a frame we encode from fuzz-derived parameters must come
  // back out byte-identical through a fresh decoder.
  if (size >= 6) {
    const std::uint8_t type = data[0];
    const std::uint32_t id = static_cast<std::uint32_t>(data[1]) |
                             (static_cast<std::uint32_t>(data[2]) << 8);
    const std::size_t payload_len = std::min<std::size_t>(size - 5, kFuzzMaxFrame);
    std::vector<std::uint8_t> encoded;
    psl::net::encode_frame(encoded, type, id, {data + 5, payload_len});

    psl::net::FrameDecoder rt(kFuzzMaxFrame);
    rt.feed(encoded);
    psl::net::Frame out;
    if (rt.next(out) != psl::net::FrameDecoder::Next::kFrame) __builtin_trap();
    if (out.header.type != type || out.header.id != id) __builtin_trap();
    if (out.payload.size() != payload_len) __builtin_trap();
    for (std::size_t i = 0; i < payload_len; ++i) {
      if (out.payload[i] != data[5 + i]) __builtin_trap();
    }
    if (rt.next(out) != psl::net::FrameDecoder::Next::kNeedMore) __builtin_trap();

    // Near-valid datagrams reach the accept side of the differential: the
    // frame itself, one fuzz-chosen header byte overwritten, and the frame
    // cut short or padded by one byte.
    check_datagram(encoded);
    std::vector<std::uint8_t> mutated = encoded;
    mutated[data[3] % psl::net::kHeaderBytes] = data[4];
    check_datagram(mutated);
    check_datagram({encoded.data(), encoded.size() - 1});
    encoded.push_back(data[0]);
    check_datagram(encoded);
  }
  return 0;
}
