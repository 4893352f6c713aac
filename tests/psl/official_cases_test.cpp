// The publicsuffix.org "checkPublicSuffix" test battery (the canonical
// test_psl.txt cases), run against a list containing exactly the rules
// those cases exercise (tests/support/canonical_cases.hpp).
#include <gtest/gtest.h>

#include <optional>

#include "canonical_cases.hpp"
#include "psl/psl/list.hpp"

namespace psl {
namespace {

using test_support::CanonicalCase;

const List& list() {
  static const List l = [] {
    auto parsed = List::parse(test_support::kCanonicalRules);
    EXPECT_TRUE(parsed.ok());
    return *std::move(parsed);
  }();
  return l;
}

/// The harness function from the canonical test file: nullopt == "null".
std::optional<std::string> check(std::string_view domain) {
  if (domain.empty()) return std::nullopt;
  return list().registrable_domain(domain);
}

class OfficialCaseTest : public ::testing::TestWithParam<CanonicalCase> {};

TEST_P(OfficialCaseTest, CheckPublicSuffix) {
  const CanonicalCase& c = GetParam();
  const auto actual = check(c.domain);
  if (c.expected == nullptr) {
    EXPECT_FALSE(actual.has_value()) << c.domain << " -> " << *actual;
  } else {
    ASSERT_TRUE(actual.has_value()) << c.domain;
    EXPECT_EQ(*actual, c.expected) << c.domain;
  }
}

INSTANTIATE_TEST_SUITE_P(Canonical, OfficialCaseTest,
                         ::testing::ValuesIn(test_support::kCanonicalCases));

}  // namespace
}  // namespace psl
