// PSLN framing layer: encode/decode round trips under arbitrary read
// fragmentation, frame-level rejection (bad magic/version/flags/oversize,
// sticky errors), bounds-checked payload parsing, and the no-allocation
// steady-state contract (verified with a counting global operator new).
// Suites are named Net* so the TSan CI job can select them with
// `ctest -R '^(Serve|Net)'`.
#include "psl/net/frame.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "counting_new.hpp"

namespace psl::net {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(NetFrameTest, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> payload = bytes_of("hello frame");
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 42, payload);
  ASSERT_EQ(wire.size(), kHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.header.version, kProtocolVersion);
  EXPECT_EQ(frame.header.type, static_cast<std::uint8_t>(FrameType::kPing));
  EXPECT_EQ(frame.header.flags, 0u);
  EXPECT_EQ(frame.header.id, 42u);
  ASSERT_EQ(frame.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(frame.payload.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetFrameTest, EmptyPayloadFrame) {
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kStats), 7, {});
  ASSERT_EQ(wire.size(), kHeaderBytes);

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.header.id, 7u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrameTest, ByteByByteFeeding) {
  const std::vector<std::uint8_t> payload = bytes_of("fragmented");
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kMatchBatch), 9, payload);

  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed({&wire[i], 1});
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kNeedMore) << "at byte " << i;
  }
  decoder.feed({&wire[wire.size() - 1], 1});
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.header.id, 9u);
  ASSERT_EQ(frame.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(frame.payload.data(), payload.data(), payload.size()), 0);
}

TEST(NetFrameTest, MultipleFramesInOneFeed) {
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, bytes_of("a"));
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 2, bytes_of("bb"));
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 3, {});

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
    EXPECT_EQ(frame.header.id, id);
  }
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Next::kNeedMore);
}

TEST(NetFrameTest, BadMagicIsStickyError) {
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, {});
  wire[0] ^= 0xFF;

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code, "net.frame.magic");
  EXPECT_TRUE(decoder.failed());

  // Poisoned: further feeds are no-ops, next() keeps failing.
  std::vector<std::uint8_t> good;
  encode_frame(good, static_cast<std::uint8_t>(FrameType::kPing), 2, {});
  decoder.feed(good);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Next::kError);
}

TEST(NetFrameTest, BadVersionRejected) {
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, {});
  wire[4] = kProtocolVersion + 1;

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code, "net.frame.version");
}

TEST(NetFrameTest, NonzeroFlagsRejected) {
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, {});
  wire[6] = 0x01;  // reserved flags MUST be zero

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code, "net.frame.flags");
}

TEST(NetFrameTest, OversizePayloadRejectedFromHeaderAlone) {
  // Declare a payload over the cap; the decoder must reject on the header,
  // before any payload bytes arrive (no buffering of hostile lengths).
  std::vector<std::uint8_t> header;
  const std::size_t frame_begin =
      begin_frame(header, static_cast<std::uint8_t>(FrameType::kReload), 1);
  header[frame_begin + 12] = 0xFF;
  header[frame_begin + 13] = 0xFF;
  header[frame_begin + 14] = 0xFF;
  header[frame_begin + 15] = 0x7F;

  FrameDecoder decoder(1024);
  decoder.feed(header);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code, "net.frame.oversize");
}

TEST(NetFrameTest, PayloadAtExactCapAccepted) {
  const std::vector<std::uint8_t> payload(256, 0xAB);
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kReload), 1, payload);

  FrameDecoder decoder(256);
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.payload.size(), 256u);
}

TEST(NetFrameTest, EndFramePatchesLength) {
  std::vector<std::uint8_t> out;
  const std::size_t begin = begin_frame(out, static_cast<std::uint8_t>(FrameType::kPing), 5);
  put_u32(out, 0xDEADBEEF);
  put_str16(out, "suffix.example");
  end_frame(out, begin);

  FrameDecoder decoder;
  decoder.feed(out);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
  WireReader reader(frame.payload);
  std::uint32_t word = 0;
  std::string_view s;
  ASSERT_TRUE(reader.u32(word));
  EXPECT_EQ(word, 0xDEADBEEFu);
  ASSERT_TRUE(reader.str16(s));
  EXPECT_EQ(s, "suffix.example");
  EXPECT_TRUE(reader.done());
}

TEST(NetFrameReaderTest, RefusesShortReads) {
  const std::uint8_t bytes[3] = {1, 2, 3};
  WireReader reader({bytes, 3});
  std::uint32_t word = 0;
  EXPECT_FALSE(reader.u32(word));  // only 3 bytes left
  std::uint8_t byte = 0;
  ASSERT_TRUE(reader.u8(byte));
  EXPECT_EQ(byte, 1);
  std::uint16_t half = 0;
  ASSERT_TRUE(reader.u16(half));
  EXPECT_EQ(half, 0x0302u);  // little-endian
  EXPECT_TRUE(reader.done());
  EXPECT_FALSE(reader.u8(byte));
}

TEST(NetFrameReaderTest, Str16BoundsChecked) {
  std::vector<std::uint8_t> payload;
  put_u16(payload, 10);  // declares 10 bytes...
  put_raw(payload, bytes_of("short"));  // ...but only 5 follow

  WireReader reader(payload);
  std::string_view s;
  EXPECT_FALSE(reader.str16(s));
}

TEST(NetFrameParseTest, SameSiteRequestRoundTrip) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, 2);
  put_str16(payload, "a.example.com");
  put_str16(payload, "b.example.com");
  put_str16(payload, "one.co.uk");
  put_str16(payload, "two.co.uk");

  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  ASSERT_TRUE(parse_same_site_request(payload, pairs));
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, "a.example.com");
  EXPECT_EQ(pairs[0].second, "b.example.com");
  EXPECT_EQ(pairs[1].first, "one.co.uk");
  EXPECT_EQ(pairs[1].second, "two.co.uk");
}

TEST(NetFrameParseTest, SameSiteRejectsImpossibleCount) {
  // count claims more pairs than the payload could possibly hold — must be
  // rejected BEFORE any reserve() (no attacker-controlled allocation).
  std::vector<std::uint8_t> payload;
  put_u32(payload, 0x40000000);
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  EXPECT_FALSE(parse_same_site_request(payload, pairs));
}

TEST(NetFrameParseTest, SameSiteRejectsTrailingBytes) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, 1);
  put_str16(payload, "a.com");
  put_str16(payload, "b.com");
  put_u8(payload, 0);  // stray trailing byte
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  EXPECT_FALSE(parse_same_site_request(payload, pairs));
}

TEST(NetFrameParseTest, SameSiteRejectsTruncatedString) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, 1);
  put_str16(payload, "a.com");
  put_u16(payload, 400);  // second hostname truncated
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  EXPECT_FALSE(parse_same_site_request(payload, pairs));
}

TEST(NetFrameParseTest, MatchRequestRoundTrip) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, 3);
  put_str16(payload, "x.github.io");
  put_str16(payload, "");
  put_str16(payload, "deep.a.b.co.uk");

  std::vector<std::string_view> hosts;
  ASSERT_TRUE(parse_match_request(payload, hosts));
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0], "x.github.io");
  EXPECT_EQ(hosts[1], "");
  EXPECT_EQ(hosts[2], "deep.a.b.co.uk");
}

TEST(NetFrameParseTest, MatchRejectsImpossibleCountAndShortPayload) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, 0x7FFFFFFF);
  std::vector<std::string_view> hosts;
  EXPECT_FALSE(parse_match_request(payload, hosts));

  payload.clear();
  put_u32(payload, 2);
  put_str16(payload, "only-one.com");
  EXPECT_FALSE(parse_match_request(payload, hosts));

  EXPECT_FALSE(parse_match_request({payload.data(), 3}, hosts));  // short count
}

TEST(NetFrameParseTest, ScratchVectorsAreClearedAndRefilled) {
  std::vector<std::uint8_t> payload;
  put_u32(payload, 1);
  put_str16(payload, "fresh.com");
  std::vector<std::string_view> hosts{"stale", "views"};
  ASSERT_TRUE(parse_match_request(payload, hosts));
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0], "fresh.com");
}

TEST(NetFrameTest, SteadyStateDecodeEncodeDoesNotAllocate) {
  // Warm up: one frame through decoder and encode buffer grows them to
  // high-water size. After that, the decode/encode hot path must not touch
  // the heap (the serving loop's per-request no-allocation contract).
  std::vector<std::uint8_t> payload;
  put_u32(payload, 1);
  put_str16(payload, "warm.example.com");
  put_str16(payload, "up.example.com");

  std::vector<std::uint8_t> wire;
  FrameDecoder decoder;
  Frame frame;
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  pairs.reserve(4);

  for (int warm = 0; warm < 2; ++warm) {
    wire.clear();
    encode_frame(wire, static_cast<std::uint8_t>(FrameType::kSameSiteBatch), 1, payload);
    decoder.feed(wire);
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
    ASSERT_TRUE(parse_same_site_request(frame.payload, pairs));
  }

  const std::size_t before = test_support::allocation_count();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    wire.clear();
    encode_frame(wire, static_cast<std::uint8_t>(FrameType::kSameSiteBatch), i, payload);
    decoder.feed(wire);
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Next::kFrame);
    ASSERT_TRUE(parse_same_site_request(frame.payload, pairs));
    ASSERT_EQ(pairs.size(), 1u);
  }
  const std::size_t after = test_support::allocation_count();
  EXPECT_EQ(after - before, 0u) << "decode/encode hot path allocated";
}

TEST(NetFrameTest, GenerationChangedPayloadRoundTrips) {
  WireGenerationChanged push;
  push.generation = 42;
  push.rule_count = 9368;
  push.source_date_days = 19500;
  push.rule_delta = -17;  // negative deltas must survive the wire

  std::vector<std::uint8_t> payload;
  put_generation_changed(payload, push);
  EXPECT_EQ(payload.size(), 32u);  // four u64 fields, nothing optional

  WireGenerationChanged parsed;
  ASSERT_TRUE(parse_generation_changed(payload, parsed));
  EXPECT_EQ(parsed, push);

  // Short and over-long payloads are both rejected.
  WireGenerationChanged sink;
  EXPECT_FALSE(parse_generation_changed(std::span(payload).first(31), sink));
  payload.push_back(0);
  EXPECT_FALSE(parse_generation_changed(payload, sink));
}

TEST(NetFrameTest, TypedEncodeHelpersMatchRawOverloads) {
  // The typed begin/encode overloads are byte-for-byte the raw ones — the
  // enum is the single source of truth, not a second encoding.
  std::vector<std::uint8_t> typed, raw;
  const std::uint8_t body[3] = {1, 2, 3};
  encode_frame(typed, FrameType::kSubscribe, 7, body);
  encode_frame(raw, static_cast<std::uint8_t>(0x08), 7, body);
  EXPECT_EQ(typed, raw);

  typed.clear();
  raw.clear();
  const std::size_t typed_begin = begin_response_frame(typed, FrameType::kMatchBatch, 9);
  end_frame(typed, typed_begin);
  const std::size_t raw_begin = begin_frame(raw, static_cast<std::uint8_t>(0x03 | kResponseBit), 9);
  end_frame(raw, raw_begin);
  EXPECT_EQ(typed, raw);
  EXPECT_EQ(response_type(FrameType::kMatchBatch), 0x83);
}

TEST(NetFrameTest, StatusNamesAreStable) {
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kBackpressure), "backpressure");
  EXPECT_STREQ(status_name(Status::kMalformed), "malformed");
  EXPECT_STREQ(status_name(Status::kUnsupported), "unsupported");
  EXPECT_STREQ(status_name(Status::kReloadRejected), "reload-rejected");
  EXPECT_STREQ(status_name(Status::kShuttingDown), "shutting-down");
}

}  // namespace
}  // namespace psl::net
