#include "psl/idna/punycode.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "psl/idna/utf8.hpp"
#include "psl/util/rng.hpp"

namespace psl::idna {
namespace {

std::vector<CodePoint> cps_of(std::string_view utf8) {
  auto r = utf8_decode(utf8);
  EXPECT_TRUE(r.ok());
  return *std::move(r);
}

struct Vector {
  const char* unicode_utf8;
  const char* punycode;
};

// Well-known IDNA punycode pairs (label content, without the xn-- prefix).
const Vector kVectors[] = {
    {"b\xC3\xBC\x63her", "bcher-kva"},                              // bücher
    {"m\xC3\xBCnchen", "mnchen-3ya"},                               // münchen
    {"\xE4\xB8\xAD\xE5\x9B\xBD", "fiqs8s"},                         // 中国
    {"\xD0\xB8\xD1\x81\xD0\xBF\xD1\x8B\xD1\x82\xD0\xB0\xD0\xBD\xD0\xB8\xD0\xB5",
     "80akhbyknj4f"},                                               // испытание
    {"\xE2\x98\x83", "n3h"},                                        // ☃ snowman
};

// Prints a vector by its ASCII form, not by its pointer bytes, so the
// discovered test names are the same on every build and every run.
void PrintTo(const Vector& v, std::ostream* os) { *os << v.punycode; }

class PunycodeVectorTest : public ::testing::TestWithParam<Vector> {};

TEST_P(PunycodeVectorTest, EncodesToKnownForm) {
  const auto encoded = punycode_encode(cps_of(GetParam().unicode_utf8));
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*encoded, GetParam().punycode);
}

TEST_P(PunycodeVectorTest, DecodesFromKnownForm) {
  const auto decoded = punycode_decode(GetParam().punycode);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, cps_of(GetParam().unicode_utf8));
}

INSTANTIATE_TEST_SUITE_P(KnownVectors, PunycodeVectorTest, ::testing::ValuesIn(kVectors));

TEST(PunycodeTest, AllBasicInputGetsTrailingDelimiter) {
  // RFC 3492 section 7.1 (S): "-> $1.00 <-" encodes to itself plus "-".
  const auto encoded = punycode_encode(cps_of("-> $1.00 <-"));
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*encoded, "-> $1.00 <--");
  const auto decoded = punycode_decode("-> $1.00 <--");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, cps_of("-> $1.00 <-"));
}

TEST(PunycodeTest, EmptyInput) {
  const auto encoded = punycode_encode({});
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*encoded, "");
  const auto decoded = punycode_decode("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(PunycodeTest, DecodeRejectsInvalidDigits) {
  EXPECT_FALSE(punycode_decode("!!!").ok());
  EXPECT_FALSE(punycode_decode("abc_def").ok());
}

TEST(PunycodeTest, DecodeRejectsNonAsciiBeforeDelimiter) {
  EXPECT_EQ(punycode_decode("\xC3\xBC-abc").error().code, "punycode.non-basic");
}

TEST(PunycodeTest, DecodeRejectsTruncatedInteger) {
  // "a-" then nothing after starting a variable-length integer... a trailing
  // incomplete digit sequence must error, not crash.
  EXPECT_FALSE(punycode_decode("a-\x7F").ok());
}

TEST(PunycodeTest, EncodeRejectsSurrogates) {
  EXPECT_EQ(punycode_encode({0xD800}).error().code, "punycode.bad-scalar");
}

TEST(PunycodeTest, DecodeIsCaseInsensitiveInDigits) {
  const auto lower = punycode_decode("fiqs8s");
  const auto upper = punycode_decode("FIQS8S");
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(*lower, *upper);
}

TEST(PunycodeTest, RandomRoundTripProperty) {
  util::Rng rng(1234);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<CodePoint> input;
    const std::size_t len = 1 + rng.below(20);
    for (std::size_t i = 0; i < len; ++i) {
      if (rng.chance(0.5)) {
        input.push_back('a' + static_cast<CodePoint>(rng.below(26)));
      } else {
        // Non-ASCII scalar, avoiding surrogates.
        CodePoint cp;
        do {
          cp = 0x80 + static_cast<CodePoint>(rng.below(0x10FFFF - 0x80));
        } while (cp >= 0xD800 && cp <= 0xDFFF);
        input.push_back(cp);
      }
    }
    const auto encoded = punycode_encode(input);
    ASSERT_TRUE(encoded.ok());
    for (char c : *encoded) {
      EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
    }
    const auto decoded = punycode_decode(*encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, input) << "round-trip failed for iteration " << iter;
  }
}

}  // namespace
}  // namespace psl::idna
