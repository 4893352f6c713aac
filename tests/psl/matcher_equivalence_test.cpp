// Differential suite over all three matcher paths: the reversed-label trie
// (List::match), the arena-compiled matcher (CompiledMatcher::match_view),
// and the batched entry point (CompiledMatcher::match_batch). All implement the
// publicsuffix.org algorithm and must agree *exactly* — public suffix,
// registrable domain, explicitness, section, rule-label count, and the
// canonical prevailing-rule text — on every input: generated hosts,
// checkPublicSuffix-style fixture cases, and hostile degenerate strings.
// All of them drive the one walk in psl/detail/match_walk.hpp, so these
// checks guard each matcher's trie storage and the batch loop's indexing,
// not a second algorithm.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "matcher_hosts.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/psl/match.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace psl {
namespace {

// The suite is written against the Matcher concept: every implementation is
// queried through the one unified entry point (match_view) and any model of
// the concept can be dropped into the pack below.
static_assert(Matcher<List> && Matcher<CompiledMatcher>);

/// All matchers in the pack must produce an identical Match for `host`.
template <Matcher... Ms>
void expect_matchers_agree(const std::string& host, const Ms&... matchers) {
  const std::array<Match, sizeof...(Ms)> results = {matchers.match_view(host).to_match()...};
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].public_suffix, results[i].public_suffix) << "matcher " << i << ": " << host;
    ASSERT_EQ(results[0].registrable_domain, results[i].registrable_domain)
        << "matcher " << i << ": " << host;
    ASSERT_EQ(results[0].matched_explicit_rule, results[i].matched_explicit_rule)
        << "matcher " << i << ": " << host;
    ASSERT_EQ(results[0].section, results[i].section) << "matcher " << i << ": " << host;
    ASSERT_EQ(results[0].rule_labels, results[i].rule_labels) << "matcher " << i << ": " << host;
    ASSERT_EQ(results[0].prevailing_rule, results[i].prevailing_rule)
        << "matcher " << i << ": " << host;
  }
}

void expect_all_agree(const List& list, const CompiledMatcher& compiled,
                      const std::string& host) {
  expect_matchers_agree(host, list, compiled);

  // The zero-allocation view and its allocating adapter must tell one story.
  const Match a = list.match(host);
  const MatchView v = compiled.match_view(host);
  ASSERT_EQ(v.public_suffix, a.public_suffix) << host;
  ASSERT_EQ(v.registrable_domain, a.registrable_domain) << host;
  ASSERT_EQ(v.prevailing_rule(), a.prevailing_rule) << host;

  // Fourth way: the batched driver, fed this one host, must reproduce the
  // single walk's view bit for bit (a full-width batch is exercised by
  // BatchedMatchAgreesOnWholeCorpus).
  const std::string_view host_view = host;
  MatchView batched;
  ASSERT_EQ(compiled.match_batch({&host_view, 1}, {&batched, 1}), 1u);
  ASSERT_EQ(batched.public_suffix, v.public_suffix) << host;
  ASSERT_EQ(batched.registrable_domain, v.registrable_domain) << host;
  ASSERT_EQ(batched.matched_explicit_rule, v.matched_explicit_rule) << host;
  ASSERT_EQ(batched.section, v.section) << host;
  ASSERT_EQ(batched.rule_labels, v.rule_labels) << host;
  ASSERT_EQ(batched.prevailing_rule(), v.prevailing_rule()) << host;
}

using test_support::random_list;
using test_support::shared_pool;

class MatcherEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherEquivalenceTest, AllThreeMatchersAgreeOnGeneratedHosts) {
  const std::uint64_t seed = GetParam();
  const List list = random_list(seed, 140);
  const CompiledMatcher compiled(list);
  for (const std::string& host : test_support::generated_hosts(seed, 3000)) {
    expect_all_agree(list, compiled, host);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalenceTest,
                         ::testing::Values(11, 22, 33, 55, 88, 144, 233, 377));

TEST(MatcherEquivalenceTest, AgreeOnCheckPublicSuffixStyleFixture) {
  // The rule shapes of the publicsuffix.org checkPublicSuffix test data,
  // expressed against a list that exercises every kind and both sections.
  const auto parsed = List::parse(R"(// ===BEGIN ICANN DOMAINS===
com
biz
uk
co.uk
gov.uk
jp
ac.jp
kyoto.jp
ide.kyoto.jp
*.kobe.jp
!city.kobe.jp
*.ck
!www.ck
us
ak.us
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
// ===END PRIVATE DOMAINS===
)");
  ASSERT_TRUE(parsed.ok());
  const List& list = *parsed;
  const CompiledMatcher compiled(list);

  // (host, expected registrable domain; "" = host is/contains only a suffix).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"biz", ""},
      {"domain.biz", "domain.biz"},
      {"b.domain.biz", "domain.biz"},
      {"a.b.domain.biz", "domain.biz"},
      {"com", ""},
      {"example.com", "example.com"},
      {"b.example.com", "example.com"},
      {"uk", ""},
      {"co.uk", ""},
      {"example.co.uk", "example.co.uk"},
      {"b.example.co.uk", "example.co.uk"},
      {"jp", ""},
      {"test.jp", "test.jp"},
      {"ac.jp", ""},
      {"test.ac.jp", "test.ac.jp"},
      {"kyoto.jp", ""},
      {"test.kyoto.jp", "test.kyoto.jp"},
      {"ide.kyoto.jp", ""},
      {"b.ide.kyoto.jp", "b.ide.kyoto.jp"},
      {"a.b.ide.kyoto.jp", "b.ide.kyoto.jp"},
      {"c.kobe.jp", ""},
      {"b.c.kobe.jp", "b.c.kobe.jp"},
      {"a.b.c.kobe.jp", "b.c.kobe.jp"},
      {"city.kobe.jp", "city.kobe.jp"},
      {"www.city.kobe.jp", "city.kobe.jp"},
      {"ck", ""},
      {"test.ck", ""},
      {"b.test.ck", "b.test.ck"},
      {"a.b.test.ck", "b.test.ck"},
      {"www.ck", "www.ck"},
      {"www.www.ck", "www.ck"},
      {"us", ""},
      {"test.us", "test.us"},
      {"ak.us", ""},
      {"test.ak.us", "test.ak.us"},
      {"github.io", ""},
      {"alice.github.io", "alice.github.io"},
      {"www.alice.github.io", "alice.github.io"},
      {"blogspot.com", ""},
      {"me.blogspot.com", "me.blogspot.com"},
  };
  for (const auto& [host, registrable] : cases) {
    EXPECT_EQ(list.match(host).registrable_domain, registrable) << host;
    expect_all_agree(list, compiled, host);
  }
}

TEST(MatcherEquivalenceTest, AgreeOnHostileAndDegenerateHosts) {
  const List list = random_list(4096, 120);
  const CompiledMatcher compiled(list);

  for (const std::string& host : test_support::hostile_hosts()) {
    expect_all_agree(list, compiled, host);
  }
}

TEST(MatcherEquivalenceTest, BatchedMatchAgreesOnWholeCorpus) {
  // One match_batch call over hundreds of hosts, with degenerate hosts
  // salted throughout. Each out[i] must equal the sequential walk's view,
  // and reg_domain_batch's packed keys must re-attach to the query strings
  // exactly.
  const List list = random_list(9001, 140);
  const CompiledMatcher compiled(list);
  const auto pool = shared_pool(9001);

  std::vector<std::string> storage = {"", "a..", ".", "10.0.0.1", "a.b.c.d.e.f.g.h."};
  util::Rng rng(9001);
  for (int i = 0; i < 300; ++i) {
    std::string host;
    const std::size_t labels = 1 + rng.below(5);
    for (std::size_t l = 0; l < labels; ++l) {
      if (!host.empty()) host.push_back('.');
      host += pool[rng.below(pool.size())];
    }
    storage.push_back(std::move(host));
    if (i % 17 == 0) storage.push_back("..");       // degenerate mid-batch
    if (i % 23 == 0) storage.push_back("b..tail");  // empty rightmost-adjacent label
  }

  std::vector<std::string_view> hosts(storage.begin(), storage.end());
  std::vector<MatchView> batched(hosts.size());
  ASSERT_EQ(compiled.match_batch(hosts, batched), hosts.size());

  std::vector<RegDomainKey> keys(hosts.size());
  ASSERT_EQ(compiled.reg_domain_batch(hosts, keys), hosts.size());

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const MatchView single = compiled.match_view(hosts[i]);
    ASSERT_EQ(batched[i].public_suffix, single.public_suffix) << hosts[i];
    ASSERT_EQ(batched[i].registrable_domain, single.registrable_domain) << hosts[i];
    ASSERT_EQ(batched[i].matched_explicit_rule, single.matched_explicit_rule) << hosts[i];
    ASSERT_EQ(batched[i].section, single.section) << hosts[i];
    ASSERT_EQ(batched[i].rule_labels, single.rule_labels) << hosts[i];
    ASSERT_EQ(batched[i].prevailing_rule(), single.prevailing_rule()) << hosts[i];
    ASSERT_EQ(keys[i].in(hosts[i]), single.registrable_domain) << hosts[i];
    ASSERT_EQ(keys[i].has_domain(), !single.registrable_domain.empty()) << hosts[i];
  }
}

TEST(MatcherEquivalenceTest, AgreeUnderIncrementalMutation) {
  // add_rule/remove_rule keep List consistent with a fresh compile of the
  // same rule set — the invariant the incremental sweep engine rests on.
  List list = random_list(2024, 80);
  util::Rng rng(2024);
  const auto pool = shared_pool(2024);

  for (int round = 0; round < 20; ++round) {
    if (!list.rules().empty() && rng.chance(0.4)) {
      list.remove_rule(list.rules()[rng.below(list.rules().size())]);
    } else {
      const std::string text =
          pool[rng.below(pool.size())] + "." + pool[rng.below(pool.size())];
      auto rule = Rule::parse(text, rng.chance(0.5) ? Section::kPrivate : Section::kIcann);
      bool duplicate = false;
      if (rule.ok()) {
        for (const Rule& r : list.rules()) duplicate = duplicate || r == *rule;
        if (!duplicate) list.add_rule(*std::move(rule));
      }
    }

    const CompiledMatcher compiled(list);
    for (int i = 0; i < 200; ++i) {
      std::string host;
      const std::size_t labels = 1 + rng.below(4);
      for (std::size_t l = 0; l < labels; ++l) {
        if (!host.empty()) host.push_back('.');
        host += pool[rng.below(pool.size())];
      }
      expect_all_agree(list, compiled, host);
    }
  }
}

TEST(MatcherEquivalenceTest, GenericSameSiteAgreesAcrossMatchers) {
  // psl::same_site is one template over the Matcher concept; instantiated
  // against each implementation it must agree with the List member.
  const List list = random_list(31337, 120);
  const CompiledMatcher compiled(list);
  const auto pool = shared_pool(31337);

  util::Rng rng(31337);
  auto make_host = [&] {
    std::string h;
    const std::size_t labels = 1 + rng.below(4);
    for (std::size_t l = 0; l < labels; ++l) {
      if (!h.empty()) h.push_back('.');
      h += pool[rng.below(pool.size())];
    }
    return h;
  };
  for (int i = 0; i < 2000; ++i) {
    const std::string a = make_host();
    const std::string b = rng.chance(0.3) ? a : make_host();
    const bool expected = list.same_site(a, b);
    EXPECT_EQ(same_site(list, a, b), expected) << a << " vs " << b;
    EXPECT_EQ(same_site(compiled, a, b), expected) << a << " vs " << b;
  }
}

}  // namespace
}  // namespace psl
