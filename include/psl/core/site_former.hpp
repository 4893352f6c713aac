// Site formation: the paper's three-step pipeline (Section 5).
//
//   (1) strip each URL to its domain name        -> done by url::Url;
//   (2) determine the suffix of each UNIQUE      -> assign_sites(), one PSL
//       domain name under a given PSL version       match per unique host;
//   (3) group domain names by suffix into sites  -> site keys + site count.
//
// A "site" is an eTLD+1. Hosts that are themselves public suffixes form no
// eTLD+1; each such host stands alone (it is nobody's subdomain), and IP
// literals likewise group only with themselves.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "psl/obs/metrics.hpp"
#include "psl/obs/span.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/psl/match.hpp"

namespace psl::harm {

/// Compact site assignment over a fixed hostname universe: hosts with equal
/// site_ids[i] belong to the same site under the list used. site_keys maps
/// a site id back to its human-readable identity (the eTLD+1, or the host
/// itself for suffix-only hosts and IP literals) so assignments produced
/// under different lists can be compared by site *name*, the way the paper
/// counts hosts "in different sites" across versions.
struct SiteAssignment {
  std::vector<std::uint32_t> site_ids;  ///< parallel to the input hostnames
  std::vector<std::string> site_keys;   ///< indexed by site id
  std::size_t site_count = 0;
};

/// Assign every hostname to a site under any matcher (List,
/// CompiledMatcher — anything satisfying the Matcher concept). O(total
/// labels) via one match_view per host; site identity is interned so
/// comparisons downstream are integer equality. The assignment (ids, keys,
/// and order) is identical across matchers built from the same list.
template <Matcher M>
SiteAssignment assign_sites(const M& matcher, std::span<const std::string> hostnames);

/// Reusable site-formation scratch for sweeps that assign the same hostname
/// universe under many list versions (one per worker thread in the parallel
/// sweep). assign() recycles the id/key vectors and the interning table's
/// buckets across calls, so per-version cost is matching + key interning
/// with no container re-growth.
class SiteAssigner {
 public:
  explicit SiteAssigner(std::span<const std::string> hostnames);

  /// Assign all hostnames under `matcher` (any Matcher; the hot sweep path
  /// uses CompiledMatcher's zero-allocation match). The returned reference
  /// stays valid (and is overwritten) until the next assign() call.
  template <Matcher M>
  const SiteAssignment& assign(const M& matcher);

  const SiteAssignment& assignment() const noexcept { return scratch_; }

  /// Account each assign() call into `metrics` (histogram
  /// "siteform.assign_ms", counters "siteform.hosts_assigned" /
  /// "siteform.assign_calls"). Instruments are resolved here, once — the
  /// per-host loop stays untouched. Null detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::span<const std::string> hostnames_;
  SiteAssignment scratch_;
  std::unordered_map<std::string, std::uint32_t, TransparentHash, std::equal_to<>> interned_;
  obs::Histogram* assign_ms_ = nullptr;
  obs::Counter* hosts_assigned_ = nullptr;
  obs::Counter* assign_calls_ = nullptr;
};

/// Aggregate shape of the site structure — Fig. 5's y-axis and the
/// "sites become fewer but larger" observation.
struct SiteStats {
  std::size_t host_count = 0;
  std::size_t site_count = 0;
  double mean_hosts_per_site = 0.0;
  std::size_t largest_site = 0;
};

SiteStats site_stats(const SiteAssignment& assignment);

/// Number of positions where the two assignments put a host in a different
/// grouping — Fig. 7's y-axis (divergence vs. the most recent list).
/// Preconditions: both assignments cover the same hostname universe.
std::size_t divergent_hosts(const SiteAssignment& a, const SiteAssignment& b);

/// True if `host` looks like an IPv4/IPv6 literal rather than a DNS name.
/// IP literals have no public suffix and are their own site.
/// (Thin alias of url::looks_like_ip_literal, kept for pipeline callers.)
bool is_ip_literal(std::string_view host) noexcept;

// --- template definitions ---------------------------------------------------

template <Matcher M>
const SiteAssignment& SiteAssigner::assign(const M& matcher) {
  const obs::Timer timer(assign_ms_);
  scratch_.site_ids.clear();
  scratch_.site_keys.clear();
  interned_.clear();  // buckets are retained; only the entries go

  for (const std::string& host : hostnames_) {
    std::string_view key;
    if (is_ip_literal(host)) {
      key = host;  // an IP is only ever same-site with itself
    } else {
      const MatchView m = matcher.match_view(host);
      // A host that *is* a public suffix has no eTLD+1; it stands alone.
      key = m.registrable_domain.empty() ? std::string_view(host) : m.registrable_domain;
    }
    auto it = interned_.find(key);
    if (it == interned_.end()) {
      it = interned_.emplace(std::string(key), static_cast<std::uint32_t>(interned_.size()))
               .first;
      scratch_.site_keys.push_back(it->first);
    }
    scratch_.site_ids.push_back(it->second);
  }
  scratch_.site_count = interned_.size();
  if (assign_calls_) {
    assign_calls_->add();
    hosts_assigned_->add(static_cast<std::int64_t>(hostnames_.size()));
  }
  return scratch_;
}

template <Matcher M>
SiteAssignment assign_sites(const M& matcher, std::span<const std::string> hostnames) {
  SiteAssigner assigner(hostnames);
  SiteAssignment out = assigner.assign(matcher);  // copy out of the scratch
  return out;
}

}  // namespace psl::harm
