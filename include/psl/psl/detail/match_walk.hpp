// The one match loop both matchers share.
//
// The publicsuffix.org algorithm ("longest matching rule prevails;
// exceptions beat wildcards; otherwise the implicit '*'") is implemented
// exactly once, here, as a right-to-left walk over the host's labels. Each
// matcher supplies a Cursor describing how *it* stores the rule trie; the
// walk supplies everything else — label scanning, the prevailing-rule
// bookkeeping, degenerate-host handling, early termination, and the
// MatchView epilogue. Equivalence across matchers is therefore structural:
// they cannot disagree on algorithm, only on storage (which the equivalence
// suite still cross-checks end to end). Batched matching
// (CompiledMatcher::match_batch) is a plain loop over this walk.
//
// Cursor requirements (all const-cheap, called in the hot loop):
//   bool descend(std::string_view label, std::uint32_t hash)
//       move to the child for `label` (hash = fnv1a_reverse of the label);
//       false when no deeper rule shares this path — the walk stops probing.
//       A cursor may also descend into nodes that carry no rule, as
//       psl::store's union arena does at versions that lack a rule below;
//       results are identical, only work differs.
//   bool has_wildcard() / Section wildcard_section()
//       wildcard rule stored on the CURRENT node (queried before descend —
//       "*.ck" covers whatever label comes next).
//   bool has_normal()   / Section normal_section()
//   bool has_exception()/ Section exception_section()
//       rule flags of the node just descended into.
#pragma once

#include <cstdint>
#include <string_view>

#include "psl/psl/match.hpp"

namespace psl::detail {

/// Deepest label stack tracked per match. DNS names carry at most 127
/// labels; the walk itself dies at (deepest rule + 1) labels anyway, so this
/// bounds stack usage, not matching correctness for any realistic list.
inline constexpr std::size_t kMaxMatchDepth = 256;

/// FNV-1a, 32-bit, over the label bytes in REVERSE order — the match loop
/// scans the host right-to-left and hashes while looking for the dot, so
/// arena build code must hash in the same order. Labels are short (median
/// 2-8 bytes); anything fancier loses to its own setup cost here.
inline std::uint32_t fnv1a_reverse(std::string_view label) noexcept {
  std::uint32_t h = 2166136261u;
  for (auto it = label.rbegin(); it != label.rend(); ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 16777619u;
  }
  return h;
}

/// Match `host` (one trailing dot tolerated) against the trie behind
/// `cursor`. Degenerate hosts — empty, or an empty rightmost label: "",
/// ".", "a.." — have no suffix at all and yield an empty MatchView.
template <typename Cursor>
MatchView match_walk(Cursor cursor, std::string_view host) {
  MatchView out;
  if (!host.empty() && host.back() == '.') host.remove_suffix(1);
  if (host.empty() || host.back() == '.') return out;

  // starts[d] = offset of the d-label suffix. Only entries up to the final
  // depth are ever written or read, so the array needs no clearing.
  std::size_t starts[kMaxMatchDepth];
  std::size_t best_len = 1;  // the implicit "*" rule
  bool explicit_rule = false;
  Section best_section = Section::kIcann;
  RuleKind best_kind = RuleKind::kNormal;
  std::size_t exception_depth = 0;
  bool walking = true;
  std::size_t depth = 0;

  // The depth bound is unreachable for DNS-shaped hosts.
  for (std::size_t end = host.size(); depth + 1 < kMaxMatchDepth; end = starts[depth] - 1) {
    // Scan the label ending at `end` leftwards, FNV-hashing it in the same
    // (reverse) byte order as fnv1a_reverse.
    std::uint32_t hash = 2166136261u;
    std::size_t start = end;
    while (start > 0 && host[start - 1] != '.') {
      hash ^= static_cast<unsigned char>(host[start - 1]);
      hash *= 16777619u;
      --start;
    }
    starts[++depth] = start;

    if (walking) {
      if (start == end) {
        walking = false;  // malformed host ("a..b"); the walk stops here
      } else {
        // A wildcard on the current node covers this label, whatever it is.
        if (cursor.has_wildcard() && depth >= best_len) {
          best_len = depth;
          best_section = cursor.wildcard_section();
          best_kind = RuleKind::kWildcard;
          explicit_rule = true;
        }
        if (!cursor.descend(host.substr(start, end - start), hash)) {
          walking = false;
        } else {
          if (cursor.has_normal() && depth >= best_len) {
            best_len = depth;
            best_section = cursor.normal_section();
            best_kind = RuleKind::kNormal;
            explicit_rule = true;
          }
          if (cursor.has_exception()) {
            // Exception prevails over everything; its public suffix drops
            // the leftmost (deepest) label of the rule.
            exception_depth = depth;
            best_section = cursor.exception_section();
            explicit_rule = true;
          }
        }
      }
    }
    // Once the trie is exhausted, only the labels up to the registrable
    // domain (public suffix + 1) are still needed.
    if (!walking && depth > (exception_depth > 0 ? exception_depth - 1 : best_len)) break;
    if (start == 0) break;  // leftmost label consumed
  }

  const std::size_t ps_len = exception_depth > 0 ? exception_depth - 1 : best_len;
  out.public_suffix = ps_len == 0 ? std::string_view{} : host.substr(starts[ps_len]);
  out.registrable_domain = depth > ps_len ? host.substr(starts[ps_len + 1]) : std::string_view{};
  out.matched_explicit_rule = explicit_rule;
  out.section = best_section;
  out.rule_labels = ps_len;
  if (explicit_rule) {
    if (exception_depth > 0) {
      out.rule_kind = RuleKind::kException;
      out.rule_span = host.substr(starts[exception_depth]);
    } else if (best_kind == RuleKind::kWildcard) {
      out.rule_kind = RuleKind::kWildcard;
      // The wildcard rule's stored labels are the suffix minus its leftmost
      // (the '*') label.
      out.rule_span = best_len > 1 ? host.substr(starts[best_len - 1]) : std::string_view{};
    } else {
      out.rule_kind = RuleKind::kNormal;
      out.rule_span = out.public_suffix;
    }
  }
  return out;
}

}  // namespace psl::detail
