#include "psl/capi/psl_c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "canonical_cases.hpp"
#include "matcher_hosts.hpp"
#include "psl/psl/list.hpp"

namespace {

/// RAII wrapper for C-API strings inside the tests.
std::string take(const char* s) {
  std::string out = s == nullptr ? std::string{} : std::string(s);
  pslh_free_string(s);
  return out;
}

TEST(CApiTest, BuiltinIsLoaded) {
  const pslh_ctx_t* psl = pslh_builtin();
  ASSERT_NE(psl, nullptr);
  EXPECT_EQ(pslh_rule_count(psl), 9368u);
  EXPECT_EQ(pslh_builtin(), psl);  // singleton
}

TEST(CApiTest, BuiltinLookups) {
  const pslh_ctx_t* psl = pslh_builtin();
  EXPECT_EQ(pslh_is_public_suffix(psl, "com"), 1);
  EXPECT_EQ(pslh_is_public_suffix(psl, "co.uk"), 1);
  EXPECT_EQ(pslh_is_public_suffix(psl, "myshopify.com"), 1);
  EXPECT_EQ(pslh_is_public_suffix(psl, "example.com"), 0);

  EXPECT_EQ(take(pslh_unregistrable_domain(psl, "www.amazon.co.uk")), "co.uk");
  EXPECT_EQ(take(pslh_registrable_domain(psl, "www.amazon.co.uk")), "amazon.co.uk");
  EXPECT_EQ(pslh_registrable_domain(psl, "co.uk"), nullptr);

  EXPECT_EQ(pslh_same_site(psl, "a.example.com", "b.example.com"), 1);
  EXPECT_EQ(pslh_same_site(psl, "a.myshopify.com", "b.myshopify.com"), 0);
}

TEST(CApiTest, LoadFromData) {
  const std::string file = "com\nuk\nco.uk\n";
  pslh_ctx_t* psl = pslh_load_from_data(file.data(), file.size());
  ASSERT_NE(psl, nullptr);
  EXPECT_EQ(pslh_rule_count(psl), 3u);
  EXPECT_EQ(take(pslh_registrable_domain(psl, "shop.example.co.uk")), "example.co.uk");
  pslh_free(psl);
}

TEST(CApiTest, LoadRejectsBadData) {
  const std::string bad = "a..b\n";
  EXPECT_EQ(pslh_load_from_data(bad.data(), bad.size()), nullptr);
  EXPECT_EQ(pslh_load_from_data(nullptr, 0), nullptr);
}

TEST(CApiTest, NullSafety) {
  EXPECT_EQ(pslh_is_public_suffix(nullptr, "com"), 0);
  EXPECT_EQ(pslh_is_public_suffix(pslh_builtin(), nullptr), 0);
  EXPECT_EQ(pslh_registrable_domain(nullptr, "x.com"), nullptr);
  EXPECT_EQ(pslh_unregistrable_domain(pslh_builtin(), ""), nullptr);
  EXPECT_EQ(pslh_same_site(pslh_builtin(), nullptr, "x.com"), 0);
  EXPECT_EQ(pslh_rule_count(nullptr), 0u);
  pslh_free(nullptr);          // no-ops
  pslh_free_string(nullptr);
  pslh_string_free(nullptr);
}

TEST(CApiTest, SameSiteBatch) {
  const pslh_ctx_t* psl = pslh_builtin();
  const char* a[] = {"a.example.com", "a.myshopify.com", "one.com"};
  const char* b[] = {"b.example.com", "b.myshopify.com", "two.com"};
  int out[3] = {-1, -1, -1};
  ASSERT_EQ(pslh_same_site_batch(psl, a, b, 3, out), 1);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);

  // Empty batch succeeds trivially; NULL pointers fail and zero the output.
  EXPECT_EQ(pslh_same_site_batch(psl, nullptr, nullptr, 0, nullptr), 1);
  out[0] = out[1] = out[2] = -1;
  EXPECT_EQ(pslh_same_site_batch(nullptr, a, b, 3, out), 0);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(pslh_same_site_batch(psl, a, b, 3, nullptr), 0);
  const char* holey_b[] = {"b.example.com", nullptr, "two.com"};
  EXPECT_EQ(pslh_same_site_batch(psl, a, holey_b, 3, out), 0);
}

TEST(CApiTest, AllocationFailureReturnsNull) {
  const pslh_ctx_t* psl = pslh_builtin();
  pslh_test_fail_next_allocs(1);
  EXPECT_EQ(pslh_registrable_domain(psl, "www.amazon.co.uk"), nullptr);
  // The countdown is consumed: the next call succeeds again.
  EXPECT_EQ(take(pslh_registrable_domain(psl, "www.amazon.co.uk")), "amazon.co.uk");
  pslh_test_fail_next_allocs(1);
  EXPECT_EQ(pslh_unregistrable_domain(psl, "www.amazon.co.uk"), nullptr);
  pslh_test_fail_next_allocs(0);  // disarm
}

/// A caller-owned C-API string as an optional (nullopt for NULL), freed.
std::optional<std::string> take_optional(const char* s) {
  if (s == nullptr) return std::nullopt;
  return take(s);
}

/// Every single-host pslh_* call and pslh_same_site_batch must answer over
/// `hosts` exactly as a List built from the same `rules` text. Same-site
/// runs over each host paired with its successor, with itself and with a
/// one-label-deeper copy of itself.
void expect_answers_like_list(const std::string& rules, const std::vector<std::string>& hosts) {
  const auto parsed = psl::List::parse(rules);
  ASSERT_TRUE(parsed.ok());
  const psl::List& list = *parsed;
  pslh_ctx_t* ctx = pslh_load_from_data(rules.data(), rules.size());
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(pslh_rule_count(ctx), list.rule_count());

  for (const std::string& host : hosts) {
    EXPECT_EQ(pslh_is_public_suffix(ctx, host.c_str()), list.is_public_suffix(host) ? 1 : 0)
        << host;
    EXPECT_EQ(take_optional(pslh_registrable_domain(ctx, host.c_str())),
              list.registrable_domain(host))
        << host;
    // "" is rejected up front; every other host has a public suffix string.
    const std::optional<std::string> suffix =
        host.empty() ? std::nullopt : std::optional<std::string>(list.public_suffix(host));
    EXPECT_EQ(take_optional(pslh_unregistrable_domain(ctx, host.c_str())), suffix) << host;
  }

  std::vector<std::string> deeper;
  deeper.reserve(hosts.size());
  for (const std::string& host : hosts) deeper.push_back("x." + host);
  std::vector<const char*> a, b;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::string* others[] = {&hosts[(i + 1) % hosts.size()], &hosts[i], &deeper[i]};
    for (const std::string* other : others) {
      a.push_back(hosts[i].c_str());
      b.push_back(other->c_str());
    }
  }
  std::vector<int> batch(a.size(), -1);
  ASSERT_EQ(pslh_same_site_batch(ctx, a.data(), b.data(), a.size(), batch.data()), PSLH_OK);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int expected = list.same_site(a[i], b[i]) ? 1 : 0;
    EXPECT_EQ(pslh_same_site(ctx, a[i], b[i]), expected) << a[i] << " vs " << b[i];
    EXPECT_EQ(batch[i], expected) << a[i] << " vs " << b[i];
  }
  pslh_free(ctx);
}

TEST(CApiTest, AnswersLikeListOnCanonicalCases) {
  std::vector<std::string> hosts;
  for (const auto& c : psl::test_support::kCanonicalCases) hosts.emplace_back(c.domain);
  expect_answers_like_list(std::string(psl::test_support::kCanonicalRules), hosts);
}

TEST(CApiTest, AnswersLikeListOnMatcherEquivalenceHosts) {
  for (const std::uint64_t seed : {11, 22, 33, 55, 88, 144, 233, 377}) {
    SCOPED_TRACE(seed);
    expect_answers_like_list(psl::test_support::random_list(seed, 140).to_file(),
                             psl::test_support::generated_hosts(seed, 3000));
  }
  SCOPED_TRACE("hostile");
  expect_answers_like_list(psl::test_support::random_list(4096, 120).to_file(),
                           psl::test_support::hostile_hosts());
}

TEST(CApiEngineTest, LifecycleAndBatches) {
  const std::string file = "com\nuk\nco.uk\n";
  pslh_ctx_t* ctx = pslh_load_from_data(file.data(), file.size());
  ASSERT_NE(ctx, nullptr);
  pslh_engine_t* engine = pslh_engine_new(ctx, 2, 0);
  pslh_free(ctx);  // the engine holds its own copy
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(pslh_engine_generation(engine), 1u);

  const char* hosts[] = {"a.b.example.com", "x.co.uk", "co.uk"};
  const char* out[3] = {nullptr, nullptr, nullptr};
  ASSERT_EQ(pslh_engine_registrable_domains(engine, hosts, 3, out), 1);
  EXPECT_EQ(take(out[0]), "example.com");
  EXPECT_EQ(take(out[1]), "x.co.uk");
  EXPECT_EQ(out[2], nullptr);  // co.uk is itself a suffix

  const char* a[] = {"a.example.com", "one.com"};
  const char* b[] = {"b.example.com", "two.com"};
  int sites[2] = {-1, -1};
  ASSERT_EQ(pslh_engine_same_site(engine, a, b, 2, sites), 1);
  EXPECT_EQ(sites[0], 1);
  EXPECT_EQ(sites[1], 0);

  pslh_engine_free(engine);
}

TEST(CApiEngineTest, ReloadKeepsLastGood) {
  const std::string file = "com\nuk\nco.uk\n";
  pslh_ctx_t* ctx = pslh_load_from_data(file.data(), file.size());
  pslh_engine_t* engine = pslh_engine_new(ctx, 1, 0);
  pslh_free(ctx);
  ASSERT_NE(engine, nullptr);

  // Bad list and bad snapshot bytes both fail without disturbing serving.
  const std::string bad = "a..b\n";
  EXPECT_EQ(pslh_engine_reload_list(engine, bad.data(), bad.size()), 0);
  const unsigned char garbage[] = {'n', 'o', 'p', 'e'};
  EXPECT_EQ(pslh_engine_reload_snapshot(engine, garbage, sizeof garbage), 0);
  EXPECT_EQ(pslh_engine_generation(engine), 1u);

  const char* hosts[] = {"a.b.example.com"};
  const char* out[1] = {nullptr};
  ASSERT_EQ(pslh_engine_registrable_domains(engine, hosts, 1, out), 1);
  EXPECT_EQ(take(out[0]), "example.com");

  // A good reload swaps in and bumps the generation.
  const std::string next = "com\nexample.com\n";
  EXPECT_EQ(pslh_engine_reload_list(engine, next.data(), next.size()), 1);
  EXPECT_EQ(pslh_engine_generation(engine), 2u);
  ASSERT_EQ(pslh_engine_registrable_domains(engine, hosts, 1, out), 1);
  EXPECT_EQ(take(out[0]), "b.example.com");

  pslh_engine_free(engine);
}

TEST(CApiEngineTest, NullSafetyAndAllocationFailure) {
  EXPECT_EQ(pslh_engine_new(nullptr, 1, 1), nullptr);
  EXPECT_EQ(pslh_engine_generation(nullptr), 0u);
  EXPECT_EQ(pslh_engine_reload_list(nullptr, "com\n", 4), 0);
  EXPECT_EQ(pslh_engine_reload_snapshot(nullptr, nullptr, 0), 0);
  pslh_engine_free(nullptr);  // no-op

  const std::string file = "com\nco.uk\n";
  pslh_ctx_t* ctx = pslh_load_from_data(file.data(), file.size());
  pslh_engine_t* engine = pslh_engine_new(ctx, 1, 0);
  pslh_free(ctx);
  ASSERT_NE(engine, nullptr);

  const char* hosts[] = {"a.example.com", "b.example.com"};
  const char* out[2] = {nullptr, nullptr};
  EXPECT_EQ(pslh_engine_registrable_domains(engine, nullptr, 2, out), 0);
  EXPECT_EQ(pslh_engine_registrable_domains(engine, hosts, 2, nullptr), 0);
  const char* holey[] = {"a.example.com", nullptr};
  EXPECT_EQ(pslh_engine_registrable_domains(engine, holey, 2, out), 0);
  EXPECT_EQ(out[0], nullptr);
  EXPECT_EQ(out[1], nullptr);

  int sites[2] = {-1, -1};
  EXPECT_EQ(pslh_engine_same_site(engine, nullptr, hosts, 2, sites), 0);
  EXPECT_EQ(sites[0], 0);
  EXPECT_EQ(pslh_engine_same_site(engine, hosts, hosts, 2, nullptr), 0);

  // A mid-batch string-duplication failure frees what was already built and
  // reports failure with an all-NULL output array.
  pslh_test_fail_next_allocs(1);
  EXPECT_EQ(pslh_engine_registrable_domains(engine, hosts, 2, out), 0);
  EXPECT_EQ(out[0], nullptr);
  EXPECT_EQ(out[1], nullptr);
  pslh_test_fail_next_allocs(0);
  ASSERT_EQ(pslh_engine_registrable_domains(engine, hosts, 2, out), 1);
  EXPECT_EQ(take(out[0]), "example.com");
  EXPECT_EQ(take(out[1]), "example.com");

  pslh_engine_free(engine);
}

}  // namespace
