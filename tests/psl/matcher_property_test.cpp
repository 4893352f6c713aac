// Property tests over the two matcher implementations: the reversed-label
// trie (List::match) and the arena-compiled matcher (CompiledMatcher).
// Both implement the publicsuffix.org algorithm, so on any input they must
// agree exactly; and several structural invariants must hold for every
// host under every list.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/strings.hpp"

namespace psl {
namespace {

/// Deterministically generate a random rule set of the given size.
List random_list(std::uint64_t seed, std::size_t rules) {
  util::Rng rng(seed);
  util::NameGen names{rng.fork(1)};
  // Build from a small shared label pool so hosts actually hit rules.
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(names.fresh(1));

  auto pick = [&] { return pool[rng.below(pool.size())]; };

  std::vector<Rule> out;
  while (out.size() < rules) {
    std::string text;
    const std::size_t labels = 1 + rng.below(3);
    for (std::size_t i = 0; i < labels; ++i) {
      if (!text.empty()) text.push_back('.');
      text += pick();
    }
    const double roll = rng.uniform01();
    if (roll < 0.12) {
      text = "*." + text;
    } else if (roll < 0.18 && labels >= 2) {
      text = "!" + text;
    }
    auto rule = Rule::parse(text, rng.chance(0.3) ? Section::kPrivate : Section::kIcann);
    if (rule.ok()) out.push_back(*std::move(rule));
  }
  return List::from_rules(std::move(out));
}

/// Random host from the same label pool (collides with rules often).
std::string random_host(util::Rng& rng, const std::vector<std::string>& pool) {
  std::string host;
  const std::size_t labels = 1 + rng.below(5);
  for (std::size_t i = 0; i < labels; ++i) {
    if (!host.empty()) host.push_back('.');
    host += pool[rng.below(pool.size())];
  }
  return host;
}

std::vector<std::string> shared_pool(std::uint64_t seed) {
  util::Rng rng(seed);
  util::NameGen names{rng.fork(1)};
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(names.fresh(1));
  return pool;
}

class MatcherAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherAgreementTest, TrieAndCompiledMatcherAgreeEverywhere) {
  const std::uint64_t seed = GetParam();
  const List list = random_list(seed, 120);
  const CompiledMatcher compiled(list);
  const auto pool = shared_pool(seed);

  util::Rng rng(seed ^ 0xABCDEF);
  for (int i = 0; i < 3000; ++i) {
    const std::string host = random_host(rng, pool);
    const Match a = list.match(host);
    const Match b = compiled.match(host);
    ASSERT_EQ(a.public_suffix, b.public_suffix) << host;
    ASSERT_EQ(a.registrable_domain, b.registrable_domain) << host;
    ASSERT_EQ(a.matched_explicit_rule, b.matched_explicit_rule) << host;
    ASSERT_EQ(a.prevailing_rule, b.prevailing_rule) << host;
    ASSERT_EQ(a.section, b.section) << host;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherAgreementTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class MatchInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchInvariantTest, StructuralInvariantsHold) {
  const std::uint64_t seed = GetParam();
  const List list = random_list(seed, 150);
  const auto pool = shared_pool(seed);

  util::Rng rng(seed * 7919);
  for (int i = 0; i < 3000; ++i) {
    const std::string host = random_host(rng, pool);
    const Match m = list.match(host);

    // The suffix is always a proper suffix of (or equal to) the host.
    ASSERT_TRUE(util::ends_with(host, m.public_suffix)) << host;
    ASSERT_FALSE(m.public_suffix.empty()) << host;

    // The registrable domain, when present, is suffix + exactly one label.
    if (!m.registrable_domain.empty()) {
      ASSERT_TRUE(util::ends_with(host, m.registrable_domain)) << host;
      ASSERT_TRUE(util::ends_with(m.registrable_domain, m.public_suffix)) << host;
      ASSERT_EQ(util::label_count(m.registrable_domain),
                util::label_count(m.public_suffix) + 1)
          << host;
      // Idempotence: the registrable domain's registrable domain is itself.
      ASSERT_EQ(list.registrable_domain(m.registrable_domain).value_or(""),
                m.registrable_domain)
          << host;
    } else {
      // A suffix-only host is its own public suffix.
      ASSERT_EQ(m.public_suffix, host) << host;
      ASSERT_TRUE(list.is_public_suffix(host)) << host;
    }

    // same_site is reflexive.
    ASSERT_TRUE(list.same_site(host, host)) << host;

    // A subdomain of the host lands in the same site — unless a wildcard
    // rule makes the subdomain itself a public suffix (legal PSL
    // behaviour), which shows up as a different public suffix.
    if (!m.registrable_domain.empty()) {
      const Match ext = list.match("extra." + host);
      if (ext.public_suffix == m.public_suffix) {
        ASSERT_TRUE(list.same_site("extra." + host, host)) << host;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchInvariantTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(MatchInvariantTest, SameSiteIsSymmetric) {
  const List list = random_list(999, 100);
  const auto pool = shared_pool(999);
  util::Rng rng(999);
  for (int i = 0; i < 2000; ++i) {
    const std::string a = random_host(rng, pool);
    const std::string b = random_host(rng, pool);
    ASSERT_EQ(list.same_site(a, b), list.same_site(b, a)) << a << " / " << b;
  }
}

TEST(MatchInvariantTest, MoreRulesNeverCoarsenBoundaries) {
  // Adding a (non-exception) rule can only keep or shrink sites: two hosts
  // that are different sites under the subset list stay different under the
  // superset. (Exceptions are excluded from this property by construction:
  // an exception rule merges hosts back together.)
  util::Rng rng(4242);
  util::NameGen names{rng.fork(1)};
  std::vector<std::string> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(names.fresh(1));

  std::vector<Rule> base_rules;
  for (int i = 0; i < 60; ++i) {
    std::string text = pool[rng.below(pool.size())];
    if (rng.chance(0.5)) text += "." + pool[rng.below(pool.size())];
    auto r = Rule::parse(text, Section::kIcann);
    if (r.ok()) base_rules.push_back(*std::move(r));
  }
  List subset = List::from_rules(base_rules);

  std::vector<Rule> more = base_rules;
  for (int i = 0; i < 40; ++i) {
    const std::string text =
        pool[rng.below(pool.size())] + "." + pool[rng.below(pool.size())];
    auto r = Rule::parse(text, Section::kPrivate);
    if (r.ok()) more.push_back(*std::move(r));
  }
  List superset = List::from_rules(std::move(more));

  for (int i = 0; i < 2000; ++i) {
    const std::string a = random_host(rng, pool);
    const std::string b = random_host(rng, pool);
    if (!subset.same_site(a, b)) {
      ASSERT_FALSE(superset.same_site(a, b)) << a << " / " << b;
    }
  }
}

}  // namespace
}  // namespace psl
