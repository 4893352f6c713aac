// The publicsuffix.org "checkPublicSuffix" battery (the canonical
// test_psl.txt cases) and the rules those cases exercise, shared by every
// suite that checks a matcher surface against it.
// checkPublicSuffix(domain, expected_registrable): expected null when the
// domain IS a public suffix (or invalid).
#pragma once

#include <ostream>
#include <string_view>

namespace psl::test_support {

// The rules the canonical cases rely on (subset of the real list).
inline constexpr std::string_view kCanonicalRules = R"(// ===BEGIN ICANN DOMAINS===
com
biz
jp
ac.jp
kyoto.jp
ide.kyoto.jp
*.kobe.jp
!city.kobe.jp
ck
*.ck
!www.ck
us
ak.us
k12.ak.us
jm
*.jm
mz
*.mz
!teledata.mz
cn
com.cn
xn--fiqs8s
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
uk.com
// ===END PRIVATE DOMAINS===
)";

struct CanonicalCase {
  const char* domain;
  const char* expected;  // nullptr = null
};

// Prints a case by content, not by its pointer bytes, so the discovered
// test names are the same on every build and every run.
inline void PrintTo(const CanonicalCase& c, std::ostream* os) {
  *os << c.domain << " -> " << (c.expected == nullptr ? "null" : c.expected);
}

// Adapted verbatim from the canonical battery (listed/unlisted TLDs, one-
// and two-level rules, wildcards, exceptions, IDN), minus the mixed-case
// and leading-dot groups, which our pipeline normalises before matching.
inline constexpr CanonicalCase kCanonicalCases[] = {
    // Listed TLD.
    {"com", nullptr},
    {"example.com", "example.com"},
    {"www.example.com", "example.com"},
    // Unlisted "TLD" (implicit *).
    {"example", nullptr},
    {"example.example", "example.example"},
    {"b.example.example", "example.example"},
    {"a.b.example.example", "example.example"},
    // TLD with only one rule.
    {"biz", nullptr},
    {"domain.biz", "domain.biz"},
    {"b.domain.biz", "domain.biz"},
    {"a.b.domain.biz", "domain.biz"},
    // TLD with some two-level rules.
    {"uk.com", nullptr},
    {"example.uk.com", "example.uk.com"},
    {"b.example.uk.com", "example.uk.com"},
    {"a.b.example.uk.com", "example.uk.com"},
    {"test.ac", "test.ac"},
    // TLD with one two-level rule and one one-level rule.
    {"cn", nullptr},
    {"com.cn", nullptr},
    {"example.cn", "example.cn"},
    {"example.com.cn", "example.com.cn"},
    {"a.example.com.cn", "example.com.cn"},
    // More complex TLD (jp).
    {"jp", nullptr},
    {"test.jp", "test.jp"},
    {"www.test.jp", "test.jp"},
    {"ac.jp", nullptr},
    {"test.ac.jp", "test.ac.jp"},
    {"www.test.ac.jp", "test.ac.jp"},
    {"kyoto.jp", nullptr},
    {"test.kyoto.jp", "test.kyoto.jp"},
    {"ide.kyoto.jp", nullptr},
    {"b.ide.kyoto.jp", "b.ide.kyoto.jp"},
    {"a.b.ide.kyoto.jp", "b.ide.kyoto.jp"},
    {"c.kobe.jp", nullptr},
    {"b.c.kobe.jp", "b.c.kobe.jp"},
    {"a.b.c.kobe.jp", "b.c.kobe.jp"},
    {"city.kobe.jp", "city.kobe.jp"},
    {"www.city.kobe.jp", "city.kobe.jp"},
    // TLD with a wildcard rule and exceptions (ck).
    {"ck", nullptr},
    {"test.ck", nullptr},
    {"b.test.ck", "b.test.ck"},
    {"a.b.test.ck", "b.test.ck"},
    {"www.ck", "www.ck"},
    {"www.www.ck", "www.ck"},
    // US k12.
    {"us", nullptr},
    {"test.us", "test.us"},
    {"www.test.us", "test.us"},
    {"ak.us", nullptr},
    {"test.ak.us", "test.ak.us"},
    {"www.test.ak.us", "test.ak.us"},
    {"k12.ak.us", nullptr},
    {"test.k12.ak.us", "test.k12.ak.us"},
    {"www.test.k12.ak.us", "test.k12.ak.us"},
    // Whole-TLD wildcards (jm, mz).
    {"jm", nullptr},
    {"anything.jm", nullptr},
    {"www.anything.jm", "www.anything.jm"},
    {"teledata.mz", "teledata.mz"},
    {"www.teledata.mz", "teledata.mz"},
    {"something.mz", nullptr},
    // IDN A-label.
    {"xn--fiqs8s", nullptr},
    {"xn--85x722f.xn--fiqs8s", "xn--85x722f.xn--fiqs8s"},
    {"www.xn--85x722f.xn--fiqs8s", "xn--85x722f.xn--fiqs8s"},
};

}  // namespace psl::test_support
