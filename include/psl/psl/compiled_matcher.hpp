// Arena-compiled Public Suffix List matcher.
//
// CompiledMatcher freezes a psl::List into a single contiguous arena laid
// out for the sweep hot path (one match per unique hostname per list
// version — hundreds of millions of calls at paper scale):
//
//   * trie nodes are indices into one flat node array instead of
//     heap-allocated `unique_ptr` children — no pointer chasing across
//     scattered allocations;
//   * each node's children live in one contiguous hash-sorted range — a
//     dense array of label hashes binary-searched first, with the
//     `(label_offset, node_index)` records and a byte-compare against a
//     shared string pool consulted only on a hash hit;
//   * rule presence and sections are packed into two bitfield bytes per
//     node.
//
// The arena is addressed through spans. Compiling a List owns the backing
// vectors; loading a serialized snapshot (psl::snapshot) points the spans
// at the snapshot buffer instead — the arena's flat layout is its own wire
// format, so a validated load is zero-copy.
//
// The match path allocates nothing: match_view() returns a MatchView whose
// string_views point into the *caller's* host buffer, and its per-call
// state is a fixed stack array of label offsets. The classic allocating
// Match is available through the match() adapter.
//
// Semantics are byte-identical to List::match for every input: both
// matchers drive the single shared walk in
// psl/detail/match_walk.hpp, and tests/psl/matcher_equivalence_test.cpp
// cross-checks them end to end over generated, fixture, and hostile hosts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "psl/psl/detail/match_walk.hpp"
#include "psl/psl/list.hpp"
#include "psl/psl/match.hpp"

namespace psl {

namespace snapshot {
struct Access;  // serialization backdoor, defined in src/serve/snapshot.cpp
}

class CompiledMatcher {
 public:
  /// Compile `list` into the arena. The matcher is self-contained: `list`
  /// may be destroyed afterwards.
  explicit CompiledMatcher(const List& list);

  // The arena spans must track the owned storage across copies and moves
  // (vectors move their heap buffers, so moves only need a span re-point
  // when the source owned its arena; copies always re-point).
  CompiledMatcher(const CompiledMatcher& other);
  CompiledMatcher& operator=(const CompiledMatcher& other);
  CompiledMatcher(CompiledMatcher&& other) noexcept;
  CompiledMatcher& operator=(CompiledMatcher&& other) noexcept;
  ~CompiledMatcher() = default;

  // Rule-presence flags of NodeRules::flags; the matching section bits live
  // in NodeRules::sections (bit set = kPrivate).
  enum : std::uint8_t {
    kHasNormal = 1u << 0,
    kHasWildcard = 1u << 1,  // set on the PARENT of the '*' label
    kHasException = 1u << 2,
  };

  /// The rule bits of one trie node: which rule kinds end there (flags) and
  /// which of those are PRIVATE-section (sections, a subset of flags).
  struct NodeRules {
    std::uint8_t flags = 0;
    std::uint8_t sections = 0;
  };

  /// Zero-allocation match. `host` must stay alive while the returned
  /// views are used. Tolerates one trailing dot like List::match.
  MatchView match_view(std::string_view host) const noexcept;

  /// The walk over this arena's trie shape, with each node's rule bits read
  /// from `rules_of(*this, node_index)`; match_view is this with the arena's
  /// own bits. The walk is the shared detail::match_walk; a node whose bits
  /// are empty is descended through without changing the answer. psl::store
  /// keeps one arena over every rule any list version held and answers a
  /// version by supplying that version's bits. `rules_of` must not throw.
  template <typename RulesOf>
  MatchView match_view_with(std::string_view host, const RulesOf& rules_of) const noexcept;

  /// Batched zero-allocation match: out[i] = match_view(hosts[i]) for the
  /// first min(hosts.size(), out.size()) hosts, which is also the return
  /// value, computed by exactly that loop (the arena fits in cache, so
  /// interleaving walks behind software prefetch measured slower). All views
  /// point into the caller's host buffers, which must outlive their use; no
  /// allocation on any path.
  std::size_t match_batch(std::span<const std::string_view> hosts,
                          std::span<MatchView> out) const noexcept;

  /// Registrable-domain boundaries only: out[i] packs the offset/length of
  /// hosts[i]'s registrable domain (RegDomainKey{0,0} when it has none).
  /// This is the serve-layer cache's fall-through: 8-byte results that
  /// remain valid however long the host strings live.
  std::size_t reg_domain_batch(std::span<const std::string_view> hosts,
                               std::span<RegDomainKey> out) const noexcept;

  /// Allocating adapter with List::match semantics.
  Match match(std::string_view host) const { return match_view(host).to_match(); }

  std::string public_suffix(std::string_view host) const {
    return std::string(match_view(host).public_suffix);
  }

  /// Arena introspection (docs + tests).
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t pool_bytes() const noexcept { return pool_.size(); }
  std::size_t arena_bytes() const noexcept {
    return nodes_.size() * sizeof(Node) + children_.size() * (sizeof(Child) + sizeof(std::uint32_t)) +
           pool_.size();
  }

 private:
  friend struct snapshot::Access;

  /// Raw matcher for the snapshot loader: spans are pointed at an external
  /// buffer (validated first; see psl::snapshot), owned storage stays empty.
  CompiledMatcher() = default;

  struct Node {
    std::uint32_t children_begin = 0;  ///< index into children_
    std::uint32_t children_end = 0;
    std::uint8_t flags = 0;
    std::uint8_t sections = 0;  ///< bit i set => rule kind i is kPrivate
    /// Explicit padding so the struct has no indeterminate bytes — the
    /// arena is serialized verbatim and checksummed byte-for-byte.
    std::uint16_t reserved = 0;
  };
  static_assert(sizeof(Node) == 12 && alignof(Node) == 4);

  struct Child {
    std::uint32_t label_offset;  ///< into pool_
    std::uint32_t label_len;
    std::uint32_t node;          ///< index into nodes_
  };
  static_assert(sizeof(Child) == 12 && alignof(Child) == 4);

  static constexpr std::uint32_t kNoChild = 0xFFFFFFFFu;

  /// Re-point the arena spans at the owned storage (compile/copy paths).
  void adopt_owned() noexcept;

  std::uint32_t find_child(std::uint32_t node, std::string_view label,
                           std::uint32_t hash) const noexcept;

  // Owned backing storage (compile path). A matcher loaded from a snapshot
  // leaves these empty: its spans point into the snapshot buffer, kept
  // alive by retain_ (owning load) or by the caller (borrowed load).
  std::vector<Node> owned_nodes_;
  std::vector<std::uint32_t> owned_hashes_;
  std::vector<Child> owned_children_;
  std::vector<char> owned_pool_;
  std::shared_ptr<const void> retain_;

  std::span<const Node> nodes_;  ///< nodes_[0] is the root
  /// Per-node ranges, sorted by (hash, label). The FNV-1a hashes live in a
  /// parallel array so the binary search scans 4-byte keys (16 per cache
  /// line) instead of striding across the 12-byte Child records.
  std::span<const std::uint32_t> child_hashes_;
  std::span<const Child> children_;
  std::string_view pool_;  ///< deduplicated label bytes
};

template <typename RulesOf>
MatchView CompiledMatcher::match_view_with(std::string_view host,
                                           const RulesOf& rules_of) const noexcept {
  // Shared-walk adapter (see psl/detail/match_walk.hpp): the trie shape comes
  // from the arena, the rule bits from `rules_of`. The cursor holds
  // `rules_of` by value and hands it the arena, so match_view's capture-free
  // source takes no space and the cursor travels in registers.
  struct Cursor {
    const CompiledMatcher* m;
    [[no_unique_address]] RulesOf rules_of;
    std::uint32_t node = 0;

    bool descend(std::string_view label, std::uint32_t hash) {
      const std::uint32_t child = m->find_child(node, label, hash);
      if (child == kNoChild) return false;
      node = child;
      return true;
    }
    bool has(std::uint8_t bit) const { return (rules_of(*m, node).flags & bit) != 0; }
    Section section(std::uint8_t bit) const {
      return (rules_of(*m, node).sections & bit) ? Section::kPrivate : Section::kIcann;
    }
    bool has_wildcard() const { return has(kHasWildcard); }
    Section wildcard_section() const { return section(kHasWildcard); }
    bool has_normal() const { return has(kHasNormal); }
    Section normal_section() const { return section(kHasNormal); }
    bool has_exception() const { return has(kHasException); }
    Section exception_section() const { return section(kHasException); }
  };
  return detail::match_walk(Cursor{this, rules_of}, host);
}

static_assert(Matcher<CompiledMatcher>);

}  // namespace psl
