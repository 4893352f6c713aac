#include "psl/psl/compiled_matcher.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "psl/psl/detail/match_walk.hpp"

namespace psl {

CompiledMatcher::CompiledMatcher(const List& list) {
  // Pass 1: a throwaway pointer-free trie with map children, inserted in
  // rules() order so duplicate (labels, kind) rules resolve sections the
  // same way List::insert does (last insertion wins).
  struct BuildNode {
    std::map<std::string, std::uint32_t, std::less<>> children;
    std::uint8_t flags = 0;
    std::uint8_t sections = 0;
  };
  std::vector<BuildNode> build(1);

  for (const Rule& rule : list.rules()) {
    std::uint32_t node = 0;
    const auto& labels = rule.labels();
    for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
      const auto found = build[node].children.find(*it);
      if (found != build[node].children.end()) {
        node = found->second;
      } else {
        const auto index = static_cast<std::uint32_t>(build.size());
        build[node].children.emplace(*it, index);
        build.emplace_back();
        node = index;
      }
    }
    std::uint8_t bit = 0;
    switch (rule.kind()) {
      case RuleKind::kNormal: bit = kHasNormal; break;
      case RuleKind::kWildcard: bit = kHasWildcard; break;
      case RuleKind::kException: bit = kHasException; break;
    }
    build[node].flags |= bit;
    if (rule.section() == Section::kPrivate) {
      build[node].sections |= bit;
    } else {
      build[node].sections &= static_cast<std::uint8_t>(~bit);
    }
  }

  // Pass 2: flatten into the arena. Node indices are reused verbatim;
  // children become contiguous sorted ranges; labels are deduplicated into
  // the pool.
  std::unordered_map<std::string_view, std::uint32_t> pool_offsets;
  pool_offsets.reserve(build.size());
  const auto intern = [&](std::string_view label) {
    const auto found = pool_offsets.find(label);
    if (found != pool_offsets.end()) return found->second;
    const auto offset = static_cast<std::uint32_t>(owned_pool_.size());
    owned_pool_.insert(owned_pool_.end(), label.begin(), label.end());
    // The key views into the build trie's map keys, which outlive this pass.
    pool_offsets.emplace(label, offset);
    return offset;
  };

  owned_nodes_.resize(build.size());
  std::size_t total_children = 0;
  for (const BuildNode& b : build) total_children += b.children.size();
  owned_children_.reserve(total_children);
  owned_hashes_.reserve(total_children);

  struct PendingChild {
    std::uint32_t hash;
    std::string_view label;
    std::uint32_t node;
  };
  std::vector<PendingChild> pending;
  for (std::uint32_t i = 0; i < build.size(); ++i) {
    pending.clear();
    for (const auto& [label, child] : build[i].children) {
      pending.push_back({detail::fnv1a_reverse(label), label, child});
    }
    std::sort(pending.begin(), pending.end(), [](const PendingChild& a, const PendingChild& b) {
      if (a.hash != b.hash) return a.hash < b.hash;
      return a.label < b.label;
    });

    Node& node = owned_nodes_[i];
    node.children_begin = static_cast<std::uint32_t>(owned_children_.size());
    for (const PendingChild& p : pending) {
      owned_hashes_.push_back(p.hash);
      owned_children_.push_back({intern(p.label), static_cast<std::uint32_t>(p.label.size()), p.node});
    }
    node.children_end = static_cast<std::uint32_t>(owned_children_.size());
    node.flags = build[i].flags;
    node.sections = build[i].sections;
  }

  adopt_owned();
}

void CompiledMatcher::adopt_owned() noexcept {
  nodes_ = owned_nodes_;
  child_hashes_ = owned_hashes_;
  children_ = owned_children_;
  pool_ = std::string_view(owned_pool_.data(), owned_pool_.size());
}

CompiledMatcher::CompiledMatcher(const CompiledMatcher& other)
    : owned_nodes_(other.owned_nodes_),
      owned_hashes_(other.owned_hashes_),
      owned_children_(other.owned_children_),
      owned_pool_(other.owned_pool_),
      retain_(other.retain_) {
  if (!owned_nodes_.empty()) {
    adopt_owned();
  } else {
    // Snapshot-backed: the spans alias the (shared or borrowed) buffer.
    nodes_ = other.nodes_;
    child_hashes_ = other.child_hashes_;
    children_ = other.children_;
    pool_ = other.pool_;
  }
}

CompiledMatcher& CompiledMatcher::operator=(const CompiledMatcher& other) {
  if (this != &other) *this = CompiledMatcher(other);
  return *this;
}

CompiledMatcher::CompiledMatcher(CompiledMatcher&& other) noexcept
    : owned_nodes_(std::move(other.owned_nodes_)),
      owned_hashes_(std::move(other.owned_hashes_)),
      owned_children_(std::move(other.owned_children_)),
      owned_pool_(std::move(other.owned_pool_)),
      retain_(std::move(other.retain_)),
      nodes_(other.nodes_),
      child_hashes_(other.child_hashes_),
      children_(other.children_),
      pool_(other.pool_) {
  // Vector moves transfer the heap buffers, so the copied spans still point
  // at live storage either way. Leave the source empty-but-valid.
  other.nodes_ = {};
  other.child_hashes_ = {};
  other.children_ = {};
  other.pool_ = {};
}

CompiledMatcher& CompiledMatcher::operator=(CompiledMatcher&& other) noexcept {
  if (this != &other) {
    owned_nodes_ = std::move(other.owned_nodes_);
    owned_hashes_ = std::move(other.owned_hashes_);
    owned_children_ = std::move(other.owned_children_);
    owned_pool_ = std::move(other.owned_pool_);
    retain_ = std::move(other.retain_);
    nodes_ = other.nodes_;
    child_hashes_ = other.child_hashes_;
    children_ = other.children_;
    pool_ = other.pool_;
    other.nodes_ = {};
    other.child_hashes_ = {};
    other.children_ = {};
    other.pool_ = {};
  }
  return *this;
}

std::uint32_t CompiledMatcher::find_child(std::uint32_t node, std::string_view label,
                                          std::uint32_t h) const noexcept {
  const Node& n = nodes_[node];
  // The binary search runs over the dense hash array — the root node holds
  // every TLD, and scanning 4-byte keys keeps that search in ~3 cache
  // lines. Child records are only touched on a hash hit.
  const std::uint32_t* const first = child_hashes_.data() + n.children_begin;
  const std::uint32_t* const last = child_hashes_.data() + n.children_end;
  const std::uint32_t* it = std::lower_bound(first, last, h);
  for (; it != last && *it == h; ++it) {
    const Child& c = children_[static_cast<std::size_t>(it - child_hashes_.data())];
    if (std::string_view(pool_.data() + c.label_offset, c.label_len) == label) {
      return c.node;
    }
  }
  return kNoChild;
}

MatchView CompiledMatcher::match_view(std::string_view host) const noexcept {
  return match_view_with(host, [](const CompiledMatcher& m, std::uint32_t n) noexcept {
    return NodeRules{m.nodes_[n].flags, m.nodes_[n].sections};
  });
}

std::size_t CompiledMatcher::match_batch(std::span<const std::string_view> hosts,
                                         std::span<MatchView> out) const noexcept {
  const std::size_t n = std::min(hosts.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) out[i] = match_view(hosts[i]);
  return n;
}

std::size_t CompiledMatcher::reg_domain_batch(std::span<const std::string_view> hosts,
                                              std::span<RegDomainKey> out) const noexcept {
  const std::size_t n = std::min(hosts.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) out[i] = RegDomainKey::of(hosts[i], match_view(hosts[i]));
  return n;
}

}  // namespace psl
