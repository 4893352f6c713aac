// Unit tests for the arena-compiled matcher: known-answer cases from the
// sample list, the MatchView lifetime/aliasing contract, arena
// introspection, and the zero-allocation guarantee of match_view (enforced
// with a counting global operator new).
#include "psl/psl/compiled_matcher.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "counting_new.hpp"

namespace psl {
namespace {

constexpr std::string_view kSampleFile = R"(// ===BEGIN ICANN DOMAINS===
com
uk
co.uk
gov.uk
jp
*.ck
!www.ck
*.kawasaki.jp
!city.kawasaki.jp
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
digitaloceanspaces.com
// ===END PRIVATE DOMAINS===
)";

List sample_list() {
  auto parsed = List::parse(kSampleFile);
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

const CompiledMatcher& sample() {
  static const CompiledMatcher matcher(sample_list());
  return matcher;
}

TEST(CompiledMatcherTest, NormalWildcardAndExceptionRules) {
  EXPECT_EQ(sample().public_suffix("www.example.com"), "com");
  EXPECT_EQ(sample().public_suffix("www.amazon.co.uk"), "co.uk");
  EXPECT_EQ(sample().public_suffix("foo.bar.baz.ck"), "baz.ck");
  EXPECT_EQ(sample().public_suffix("www.ck"), "ck");
  EXPECT_EQ(sample().match("foo.www.ck").registrable_domain, "www.ck");
  EXPECT_EQ(sample().match("assets.city.kawasaki.jp").registrable_domain, "city.kawasaki.jp");
  EXPECT_EQ(sample().match("alice.github.io").registrable_domain, "alice.github.io");
}

TEST(CompiledMatcherTest, SectionsAndPrevailingRuleText) {
  EXPECT_EQ(sample().match("alice.github.io").section, Section::kPrivate);
  EXPECT_EQ(sample().match("foo.co.uk").section, Section::kIcann);
  EXPECT_EQ(sample().match("www.amazon.co.uk").prevailing_rule, "co.uk");
  EXPECT_EQ(sample().match("foo.bar.ck").prevailing_rule, "*.ck");
  EXPECT_EQ(sample().match("x.www.ck").prevailing_rule, "!www.ck");
  EXPECT_EQ(sample().match("foo.bar.example").prevailing_rule, "");
  EXPECT_FALSE(sample().match("foo.bar.example").matched_explicit_rule);
}

TEST(CompiledMatcherTest, ImplicitStarAndTrailingDot) {
  EXPECT_EQ(sample().public_suffix("foo.bar.example"), "example");
  EXPECT_EQ(sample().match("foo.bar.example").registrable_domain, "bar.example");
  EXPECT_EQ(sample().public_suffix("www.example.com."), "com");
}

TEST(CompiledMatcherTest, DegenerateHostsMatchNothing) {
  for (const char* host : {"", ".", "..", "...", "a..", "a..."}) {
    const MatchView v = sample().match_view(host);
    EXPECT_TRUE(v.public_suffix.empty()) << '"' << host << '"';
    EXPECT_TRUE(v.registrable_domain.empty()) << '"' << host << '"';
    EXPECT_FALSE(v.matched_explicit_rule) << '"' << host << '"';
    EXPECT_EQ(v.rule_labels, 0u) << '"' << host << '"';
  }
}

TEST(CompiledMatcherTest, ViewsAliasTheCallersHostBuffer) {
  const std::string host = "maps.google.co.uk";
  const MatchView v = sample().match_view(host);
  const char* const begin = host.data();
  const char* const end = host.data() + host.size();

  ASSERT_EQ(v.public_suffix, "co.uk");
  EXPECT_GE(v.public_suffix.data(), begin);
  EXPECT_LE(v.public_suffix.data() + v.public_suffix.size(), end);
  ASSERT_EQ(v.registrable_domain, "google.co.uk");
  EXPECT_GE(v.registrable_domain.data(), begin);
  EXPECT_LE(v.registrable_domain.data() + v.registrable_domain.size(), end);
  EXPECT_GE(v.rule_span.data(), begin);
}

TEST(CompiledMatcherTest, MatchAdapterEqualsListMatch) {
  const List list = sample_list();
  for (const char* host :
       {"www.example.com", "foo.bar.baz.ck", "x.www.ck", "a.b.kawasaki.jp",
        "city.kawasaki.jp", "bucket.digitaloceanspaces.com", "unknown", "a.b.c.d.e.f"}) {
    const Match a = list.match(host);
    const Match b = sample().match(host);
    EXPECT_EQ(a.public_suffix, b.public_suffix) << host;
    EXPECT_EQ(a.registrable_domain, b.registrable_domain) << host;
    EXPECT_EQ(a.matched_explicit_rule, b.matched_explicit_rule) << host;
    EXPECT_EQ(a.section, b.section) << host;
    EXPECT_EQ(a.rule_labels, b.rule_labels) << host;
    EXPECT_EQ(a.prevailing_rule, b.prevailing_rule) << host;
  }
}

TEST(CompiledMatcherTest, ArenaIsCompactAndSelfContained) {
  // Compile from a temporary List: the matcher must not dangle into it.
  CompiledMatcher matcher{[] { return sample_list(); }()};
  EXPECT_GT(matcher.node_count(), 10u);   // root + every rule label path
  EXPECT_GT(matcher.pool_bytes(), 0u);
  EXPECT_GT(matcher.arena_bytes(), matcher.pool_bytes());
  EXPECT_EQ(matcher.public_suffix("www.amazon.co.uk"), "co.uk");
  // Duplicated labels are pooled once: "kawasaki" appears in two rules.
  EXPECT_LT(matcher.pool_bytes(), std::string_view(kSampleFile).size());
}

TEST(CompiledMatcherTest, MatchViewAllocatesNothingInSteadyState) {
  const CompiledMatcher& matcher = sample();
  const std::vector<std::string> hosts = {
      "www.example.com", "deep.a.b.c.d.e.f.example.co.uk", "foo.bar.baz.ck",
      "x.www.ck",        "assets.city.kawasaki.jp",        "alice.github.io",
      "unknownhost",     "a..b",                           "www.example.com.",
  };

  // Warm-up (first-touch effects, lazy locale/iostream init, ...).
  std::size_t sum = 0;
  for (const std::string& h : hosts) sum += matcher.match_view(h).public_suffix.size();

  const std::size_t before = test_support::allocation_count();
  for (int rep = 0; rep < 1000; ++rep) {
    for (const std::string& h : hosts) {
      const MatchView v = matcher.match_view(h);
      sum += v.public_suffix.size() + v.registrable_domain.size() + v.rule_labels;
    }
  }
  const std::size_t after = test_support::allocation_count();

  EXPECT_EQ(after, before) << "match_view allocated on the hot path";
  EXPECT_GT(sum, 0u);  // keep the loop observable
}

}  // namespace
}  // namespace psl
