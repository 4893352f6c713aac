// The matcher-equivalence host set: random rule sets drawn from a small
// shared label pool, hosts built from the same pool (so they collide with
// rules often), and hostile/degenerate strings. Every matcher surface that
// must answer like List is checked against these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "psl/psl/list.hpp"
#include "psl/psl/rule.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace psl::test_support {

/// The 24 one-label names random_list(seed, …) draws its rules from.
inline std::vector<std::string> shared_pool(std::uint64_t seed) {
  util::Rng rng(seed);
  util::NameGen names{rng.fork(1)};
  std::vector<std::string> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(names.fresh(1));
  return pool;
}

/// Random rule set over shared_pool(seed): one to three labels, ~12%
/// wildcards, ~6% exceptions, ~30% PRIVATE section.
inline List random_list(std::uint64_t seed, std::size_t rules) {
  util::Rng rng(seed);
  util::NameGen names{rng.fork(1)};
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

/// `count` hosts of one to five shared_pool(seed) labels, ~5% with a
/// trailing dot.
inline std::vector<std::string> generated_hosts(std::uint64_t seed, std::size_t count) {
  const auto pool = shared_pool(seed);
  util::Rng rng(seed ^ 0xC0FFEE);
  std::vector<std::string> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string host;
    const std::size_t labels = 1 + rng.below(5);
    for (std::size_t l = 0; l < labels; ++l) {
      if (!host.empty()) host.push_back('.');
      host += pool[rng.below(pool.size())];
    }
    if (rng.chance(0.05)) host.push_back('.');  // trailing dot tolerance
    hosts.push_back(std::move(host));
  }
  return hosts;
}

/// Degenerate hosts (empty labels, lone dots, rule markers, over-long
/// names) followed by 4,000 random blobs of "ab.-!*c" bytes, dots likely.
inline std::vector<std::string> hostile_hosts() {
  std::vector<std::string> hosts = {
      "",      ".",        "..",         "...",          "....",
      "a.",    "a..",      ".a",         "..a",          "a..b",
      "a...b", ".a.b.",    "*",          "*.ck",         "!www.ck",
      "-",     "a-.b",     std::string(300, 'a'),        "a." + std::string(200, 'b'),
      std::string(64, '.') + "com",      "x" + std::string(100, '.') + "y",
  };
  util::Rng rng(777);
  const std::string alphabet = "ab.-.!*.c.";
  for (int i = 0; i < 4000; ++i) {
    std::string host;
    const std::size_t len = rng.below(24);
    for (std::size_t c = 0; c < len; ++c) host += alphabet[rng.below(alphabet.size())];
    hosts.push_back(std::move(host));
  }
  return hosts;
}

}  // namespace psl::test_support
