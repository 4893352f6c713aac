#include "psl/psl/list.hpp"

#include <algorithm>
#include <cassert>

#include "psl/psl/detail/match_walk.hpp"
#include "psl/util/strings.hpp"

namespace psl {

List::List() : root_(std::make_unique<TrieNode>()) {}

namespace {

constexpr std::string_view kIcannBegin = "===BEGIN ICANN DOMAINS===";
constexpr std::string_view kIcannEnd = "===END ICANN DOMAINS===";
constexpr std::string_view kPrivateBegin = "===BEGIN PRIVATE DOMAINS===";
constexpr std::string_view kPrivateEnd = "===END PRIVATE DOMAINS===";

}  // namespace

util::Result<List> List::parse(std::string_view file_contents) {
  std::vector<Rule> rules;
  Section section = Section::kIcann;

  std::size_t line_no = 0;
  for (std::string_view line : util::split(file_contents, '\n')) {
    ++line_no;
    std::string_view s = util::trim(line);
    if (s.empty()) continue;

    if (util::starts_with(s, "//")) {
      const std::string_view comment = util::trim(s.substr(2));
      if (comment == kIcannBegin || comment == kIcannEnd || comment == kPrivateEnd) {
        section = Section::kIcann;
      } else if (comment == kPrivateBegin) {
        section = Section::kPrivate;
      }
      continue;
    }

    // The published format terminates a rule at the first whitespace.
    const std::size_t space = s.find_first_of(" \t");
    if (space != std::string_view::npos) s = s.substr(0, space);

    auto rule = Rule::parse(s, section);
    if (!rule) {
      return util::make_error(rule.error().code,
                              "line " + std::to_string(line_no) + ": " + rule.error().message);
    }
    rules.push_back(*std::move(rule));
  }

  return from_rules(std::move(rules));
}

List List::from_rules(std::vector<Rule> rules) {
  List list;
  // De-duplicate identical rules (same kind + labels + section).
  std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
    if (a.labels() != b.labels()) return a.labels() < b.labels();
    if (a.kind() != b.kind()) return a.kind() < b.kind();
    return a.section() < b.section();
  });
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());

  list.rules_ = std::move(rules);
  for (const Rule& rule : list.rules_) list.insert(rule);
  return list;
}

void List::insert(const Rule& rule) {
  TrieNode* node = root_.get();
  const auto& labels = rule.labels();
  // Walk labels right-to-left ("co.uk" inserts uk -> co).
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    auto child = node->children.find(*it);
    if (child == node->children.end()) {
      child = node->children.emplace(*it, std::make_unique<TrieNode>()).first;
    }
    node = child->second.get();
  }
  switch (rule.kind()) {
    case RuleKind::kNormal:
      node->has_normal = true;
      node->normal_section = rule.section();
      break;
    case RuleKind::kWildcard:
      // "*.ck" is stored on the node for "ck": any single extra label matches.
      node->has_wildcard = true;
      node->wildcard_section = rule.section();
      break;
    case RuleKind::kException:
      node->has_exception = true;
      node->exception_section = rule.section();
      break;
  }
}

/// Shared-walk adapter over the pointer trie (see psl/detail/match_walk.hpp).
struct List::Cursor {
  const TrieNode* node;

  bool descend(std::string_view label, std::uint32_t) noexcept {
    const auto child = node->children.find(label);
    if (child == node->children.end()) return false;
    node = child->second.get();
    return true;
  }
  bool has_wildcard() const noexcept { return node->has_wildcard; }
  Section wildcard_section() const noexcept { return node->wildcard_section; }
  bool has_normal() const noexcept { return node->has_normal; }
  Section normal_section() const noexcept { return node->normal_section; }
  bool has_exception() const noexcept { return node->has_exception; }
  Section exception_section() const noexcept { return node->exception_section; }
};

MatchView List::match_view(std::string_view host) const noexcept {
  return detail::match_walk(Cursor{root_.get()}, host);
}

std::string List::public_suffix(std::string_view host) const {
  return std::string(match_view(host).public_suffix);
}

std::optional<std::string> List::registrable_domain(std::string_view host) const {
  const MatchView m = match_view(host);
  if (m.registrable_domain.empty()) return std::nullopt;
  return std::string(m.registrable_domain);
}

bool List::is_public_suffix(std::string_view host) const {
  return psl::is_public_suffix(*this, host);
}

bool List::same_site(std::string_view a, std::string_view b) const {
  return psl::same_site(*this, a, b);
}

void List::add_rule(Rule rule) {
  insert(rule);
  rules_.push_back(std::move(rule));
}

bool List::remove_rule(const Rule& rule_ref) {
  const auto it = std::find(rules_.begin(), rules_.end(), rule_ref);
  if (it == rules_.end()) return false;
  // `rule_ref` may alias an element of rules_ (callers often pass
  // `list.rules()[i]` straight back in); copy before erase shifts it.
  const Rule rule = *it;
  rules_.erase(it);

  // A duplicate-kind rule in the *other* section may survive the removal
  // ("foo.com" in both ICANN and PRIVATE); the trie node must then keep its
  // flag and take that rule's section. Mirror insert()'s last-write-wins:
  // the prevailing duplicate is the last one in rules_ order.
  const Rule* survivor = nullptr;
  for (const Rule& r : rules_) {
    if (r.kind() == rule.kind() && r.labels() == rule.labels()) survivor = &r;
  }

  // Update the rule's trie node. Child nodes are left in place (harmless:
  // nodes without flags never influence matching).
  TrieNode* node = root_.get();
  const auto& labels = rule.labels();
  for (auto label_it = labels.rbegin(); label_it != labels.rend(); ++label_it) {
    const auto child = node->children.find(*label_it);
    if (child == node->children.end()) return false;  // unreachable given the precondition
    node = child->second.get();
  }
  const bool keep = survivor != nullptr;
  // When the flag clears, the stored section resets to its default rather
  // than leaking the removed rule's section into a future re-add.
  const Section section = keep ? survivor->section() : Section::kIcann;
  switch (rule.kind()) {
    case RuleKind::kNormal:
      node->has_normal = keep;
      node->normal_section = section;
      break;
    case RuleKind::kWildcard:
      node->has_wildcard = keep;
      node->wildcard_section = section;
      break;
    case RuleKind::kException:
      node->has_exception = keep;
      node->exception_section = section;
      break;
  }
  return true;
}

std::pair<std::vector<Rule>, std::vector<Rule>> List::diff(const List& newer) const {
  auto key = [](const Rule& r) { return std::make_tuple(r.labels(), r.kind(), r.section()); };
  auto less = [&](const Rule& a, const Rule& b) { return key(a) < key(b); };

  std::vector<Rule> old_sorted = rules_;
  std::vector<Rule> new_sorted = newer.rules_;
  std::sort(old_sorted.begin(), old_sorted.end(), less);
  std::sort(new_sorted.begin(), new_sorted.end(), less);

  std::vector<Rule> added, removed;
  std::set_difference(new_sorted.begin(), new_sorted.end(), old_sorted.begin(), old_sorted.end(),
                      std::back_inserter(added), less);
  std::set_difference(old_sorted.begin(), old_sorted.end(), new_sorted.begin(), new_sorted.end(),
                      std::back_inserter(removed), less);
  return {std::move(added), std::move(removed)};
}

std::map<std::size_t, std::size_t> List::component_histogram() const {
  std::map<std::size_t, std::size_t> out;
  for (const Rule& r : rules_) ++out[r.match_label_count()];
  return out;
}

std::string List::to_file() const {
  std::vector<const Rule*> icann, priv;
  for (const Rule& r : rules_) {
    (r.section() == Section::kIcann ? icann : priv).push_back(&r);
  }
  auto text_less = [](const Rule* a, const Rule* b) {
    return a->to_string() < b->to_string();
  };
  std::sort(icann.begin(), icann.end(), text_less);
  std::sort(priv.begin(), priv.end(), text_less);

  std::string out;
  out += "// This file is generated by psl-harms; format: publicsuffix.org/list\n";
  out += "// ===BEGIN ICANN DOMAINS===\n";
  for (const Rule* r : icann) {
    out += r->to_string();
    out.push_back('\n');
  }
  out += "// ===END ICANN DOMAINS===\n";
  out += "// ===BEGIN PRIVATE DOMAINS===\n";
  for (const Rule* r : priv) {
    out += r->to_string();
    out.push_back('\n');
  }
  out += "// ===END PRIVATE DOMAINS===\n";
  return out;
}

}  // namespace psl
