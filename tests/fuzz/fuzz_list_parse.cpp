// Fuzz harness for psl::List::parse, with a differential oracle over the
// matchers built from whatever list it accepts.
//
// Invariants:
//   - arbitrary bytes never crash the list parser: every outcome is a List
//     or a clean Result error
//   - for an accepted list, List::match, CompiledMatcher::match_view, one
//     CompiledMatcher::match_batch call and one reg_domain_batch call agree
//     field by field on every host built from the list's own labels and
//     fragments of the input
//
// Two input modes keep the oracle busy. With the first byte even, the input
// is the list text verbatim. With it odd, only the input lines that parse on
// their own are kept, so random bytes still yield a non-trivial list; that
// list must then parse as a whole too, since parsing is line-local.
#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_common.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/strings.hpp"

namespace {

bool same_view(const psl::MatchView& a, const psl::MatchView& b) {
  return a.public_suffix == b.public_suffix && a.registrable_domain == b.registrable_domain &&
         a.rule_span == b.rule_span && a.matched_explicit_rule == b.matched_explicit_rule &&
         a.section == b.section && a.rule_kind == b.rule_kind && a.rule_labels == b.rule_labels;
}

bool same_match(const psl::Match& a, const psl::Match& b) {
  return a.public_suffix == b.public_suffix && a.registrable_domain == b.registrable_domain &&
         a.matched_explicit_rule == b.matched_explicit_rule && a.section == b.section &&
         a.rule_labels == b.rule_labels && a.prevailing_rule == b.prevailing_rule;
}

/// Hosts that reach the list's rules: each rule's own suffix, the same with
/// one and two labels in front, random label strings drawn from the rules'
/// labels and the input's fragments, and the degenerate shapes.
std::vector<std::string> hosts_for(const psl::List& list, std::string_view input) {
  std::vector<std::string> pool;
  std::vector<std::string> hosts = {"", ".", "..", "a..", "a..b"};
  for (const psl::Rule& rule : list.rules()) {
    if (hosts.size() >= 200) break;
    const std::string suffix = psl::util::join(rule.labels(), ".");
    hosts.push_back(suffix);
    hosts.push_back("x." + suffix);
    hosts.push_back("www.x." + suffix + ".");
    pool.insert(pool.end(), rule.labels().begin(), rule.labels().end());
  }
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= input.size() && pool.size() < 400; ++i) {
    if (i == input.size() || input[i] == '.' || input[i] == '\n' || input[i] == ' ') {
      if (i > begin) pool.emplace_back(input.substr(begin, std::min<std::size_t>(i - begin, 63)));
      begin = i + 1;
    }
  }
  if (pool.empty()) return hosts;

  std::uint64_t seed = 1469598103934665603ull;
  for (const char c : input) seed = (seed ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  psl::util::Rng rng(seed);
  for (int h = 0; h < 64; ++h) {
    std::string host;
    const std::size_t labels = 1 + rng.below(6);
    for (std::size_t l = 0; l < labels; ++l) {
      if (l > 0) host.push_back('.');
      if (rng.below(16) != 0) host += pool[rng.below(pool.size())];  // else an empty label
    }
    if (rng.below(8) == 0) host.push_back('.');
    hosts.push_back(std::move(host));
  }
  return hosts;
}

void check_matchers_agree(const psl::List& list, std::string_view input) {
  const psl::CompiledMatcher compiled(list);
  const std::vector<std::string> storage = hosts_for(list, input);
  const std::vector<std::string_view> hosts(storage.begin(), storage.end());

  std::vector<psl::MatchView> batched(hosts.size());
  if (compiled.match_batch(hosts, batched) != hosts.size()) __builtin_trap();
  std::vector<psl::RegDomainKey> keys(hosts.size());
  if (compiled.reg_domain_batch(hosts, keys) != hosts.size()) __builtin_trap();

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const psl::MatchView trie = list.match_view(hosts[i]);
    const psl::MatchView arena = compiled.match_view(hosts[i]);
    if (!same_view(trie, arena)) __builtin_trap();
    if (!same_view(arena, batched[i])) __builtin_trap();
    if (keys[i].in(hosts[i]) != arena.registrable_domain) __builtin_trap();
    if (!same_match(list.match(hosts[i]), arena.to_match())) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  if (size >= 1 && (data[0] & 1) != 0) {
    std::string kept;
    for (const std::string_view line : psl::util::split(input.substr(1), '\n')) {
      if (!psl::List::parse(line).ok()) continue;
      kept.append(line);
      kept.push_back('\n');
    }
    const auto parsed = psl::List::parse(kept);
    if (!parsed.ok()) __builtin_trap();
    check_matchers_agree(*parsed, input);
    return 0;
  }
  const auto parsed = psl::List::parse(input);
  if (parsed.ok()) check_matchers_agree(*parsed, input);
  return 0;
}
