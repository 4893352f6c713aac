// The shared match-outcome types and the Matcher concept.
//
// Every suffix matcher in this library (List, CompiledMatcher)
// exposes one primitive with one signature:
//
//   MatchView match_view(std::string_view host) const;
//
// MatchView is the zero-allocation outcome: its string_views point into the
// caller's host buffer (see docs/API.md "MatchView lifetime contract"). The
// classic owning Match is an adapter over it (MatchView::to_match), so the
// allocating API is the same one code path on every matcher, and generic
// code — site formation, the serving engine, the equivalence suite — is
// written once against the Matcher concept instead of per-matcher overloads.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "psl/psl/rule.hpp"

namespace psl {

/// Owning outcome of matching a hostname against the list.
struct Match {
  std::string public_suffix;       ///< the eTLD, e.g. "co.uk"
  std::string registrable_domain;  ///< eTLD+1, e.g. "example.co.uk"; empty if
                                   ///< the host *is* a public suffix
  bool matched_explicit_rule;      ///< false when only the implicit "*" applied
  Section section;                 ///< section of the prevailing rule (kIcann
                                   ///< for the implicit "*")
  std::size_t rule_labels;         ///< labels matched by the prevailing rule
  /// Canonical text of the prevailing explicit rule ("co.uk", "*.ck",
  /// "!www.ck"); empty when only the implicit "*" applied. This is the key
  /// the harm analysis uses to look up when the rule entered the list.
  std::string prevailing_rule;
};

/// Zero-allocation match outcome. All string_views point into the host
/// buffer passed to match_view(); they are valid only while that buffer
/// outlives the view (see docs/API.md "MatchView lifetime contract").
struct MatchView {
  std::string_view public_suffix;       ///< eTLD; empty for empty/degenerate hosts
  std::string_view registrable_domain;  ///< eTLD+1; empty when the host *is* a suffix
  /// Host-span of the prevailing rule's *stored* labels as they occur in
  /// the host, without '!'/'*' markers: "co.uk" for rule co.uk, "ck" for
  /// rule *.ck (the '*' label is not part of the span), "www.ck" for rule
  /// !www.ck. Empty when only the implicit "*" applied. prevailing_rule()
  /// re-attaches the marker to produce the canonical rule text.
  std::string_view rule_span;
  bool matched_explicit_rule = false;  ///< false when only the implicit "*" applied
  Section section = Section::kIcann;   ///< section of the prevailing rule
  RuleKind rule_kind = RuleKind::kNormal;  ///< kind of the prevailing rule
  std::size_t rule_labels = 0;         ///< labels in the public suffix

  /// Canonical text of the prevailing explicit rule ("co.uk", "*.ck",
  /// "!www.ck"); empty when only the implicit "*" applied. Allocates.
  std::string prevailing_rule() const;

  /// Owning adapter: the classic Match is a copy of this view.
  Match to_match() const;
};

/// Packed registrable-domain boundary: byte offset and length of the
/// registrable domain WITHIN the query host string (after the walk's
/// trailing-dot strip the registrable domain is always a contiguous
/// substring of the host). 8 bytes, trivially copyable — batch results and
/// cache values stay zero-allocation. length == 0 means the host has no
/// registrable domain (it is itself a public suffix, or is degenerate).
struct RegDomainKey {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  bool has_domain() const noexcept { return length != 0; }
  /// Re-attach the boundary to the host it was computed from. `host` must
  /// be the exact string passed to the matcher.
  std::string_view in(std::string_view host) const noexcept {
    return host.substr(offset, length);
  }
  static RegDomainKey of(std::string_view host, const MatchView& m) noexcept {
    if (m.registrable_domain.empty()) return {};
    return {static_cast<std::uint32_t>(m.registrable_domain.data() - host.data()),
            static_cast<std::uint32_t>(m.registrable_domain.size())};
  }

  friend bool operator==(const RegDomainKey&, const RegDomainKey&) = default;
};
static_assert(sizeof(RegDomainKey) == 8);

/// Any suffix matcher: one zero-allocation primitive; match(), same_site()
/// and site formation all derive from it.
template <typename M>
concept Matcher = requires(const M& m, std::string_view host) {
  { m.match_view(host) } -> std::same_as<MatchView>;
};

/// Same-site predicate over any matcher, allocation-free: equal registrable
/// domains, or (when neither host has one — both *are* suffixes, or both are
/// degenerate) literal equality with one trailing dot tolerated. Semantics
/// identical to List::same_site for every matcher.
template <Matcher M>
bool same_site(const M& matcher, std::string_view a, std::string_view b) {
  const MatchView ma = matcher.match_view(a);
  const MatchView mb = matcher.match_view(b);
  if (ma.registrable_domain.empty() || mb.registrable_domain.empty()) {
    if (!a.empty() && a.back() == '.') a.remove_suffix(1);
    if (!b.empty() && b.back() == '.') b.remove_suffix(1);
    return ma.registrable_domain.empty() && mb.registrable_domain.empty() && a == b;
  }
  return ma.registrable_domain == mb.registrable_domain;
}

}  // namespace psl
