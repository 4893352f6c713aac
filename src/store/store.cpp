// psl::store implementation: the Builder (write side) with its temporal
// arena, and the StoreView (read side). See include/psl/store/store.hpp
// for the file format.

#include "psl/store/store.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "psl/psl/list.hpp"

namespace psl::store {

namespace {

util::Error err(std::string code, std::string message) {
  return util::make_error(std::move(code), std::move(message));
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t fnv1a64(const void* data, std::size_t len,
                      std::uint64_t h = kFnvBasis) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The file checksum: every byte of the file but the checksum field itself.
constexpr std::size_t kChecksumOffset = kHeaderBytes - 8;
std::uint64_t file_checksum(const std::uint8_t* p, std::size_t size) noexcept {
  return fnv1a64(p + kHeaderBytes, size - kHeaderBytes, fnv1a64(p, kChecksumOffset));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void set_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t align8(std::uint64_t v) noexcept { return (v + 7) & ~std::uint64_t{7}; }

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Arena record sizes in bytes (CompiledMatcher's Node and Child).
constexpr std::size_t kNodeBytes = 12;
constexpr std::size_t kChildBytes = 12;

constexpr std::uint8_t kKnownFlags = CompiledMatcher::kHasNormal |
                                     CompiledMatcher::kHasWildcard |
                                     CompiledMatcher::kHasException;

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

util::Result<std::size_t> Builder::add_snapshot(std::span<const std::uint8_t> snapshot_bytes) {
  // Full validation first (structure + checksums): a store only ever holds
  // snapshots that load.
  auto loaded = snapshot::load_copy(snapshot_bytes);
  if (!loaded.ok()) return loaded.error();
  const auto parsed = snapshot::parse_header(snapshot_bytes);
  if (!parsed.ok()) return parsed.error();
  const snapshot::HeaderView& h = *parsed;

  if (!versions_.empty()) {
    const util::Date last = versions_.back().source_date;
    if (!(last < h.meta.source_date)) {
      return err("store.out-of-order",
                 "version dated " + h.meta.source_date.to_string() +
                     " does not follow " + last.to_string());
    }
  }
  auto merged = add_temporal(h, snapshot_bytes, static_cast<std::uint32_t>(versions_.size()));
  if (!merged.ok()) return merged.error();
  standalone_bytes_ += snapshot_bytes.size();
  versions_.push_back(h.meta);
  return versions_.size() - 1;
}

util::Result<std::size_t> Builder::add(const CompiledMatcher& matcher,
                                       const snapshot::Metadata& meta) {
  const std::string bytes = snapshot::serialize(matcher, meta);
  return add_snapshot(as_bytes(bytes));
}

util::Result<std::uint32_t> Builder::temporal_child(std::uint32_t parent, std::uint32_t hash,
                                                    std::string_view label, std::size_t depth,
                                                    std::size_t& cursor) {
  const std::vector<TemporalChild>& kids = temporal_[parent].children;
  while (cursor < kids.size() &&
         (kids[cursor].hash < hash ||
          (kids[cursor].hash == hash && std::string_view(kids[cursor].label) < label))) {
    ++cursor;
  }
  if (cursor < kids.size() && kids[cursor].hash == hash && kids[cursor].label == label) {
    return kids[cursor++].node;
  }
  // The path must read back as itself: a normal rule with one label per
  // trie level, each already in canonical (lower-case A-label) form. Every
  // arena compiled from a List passes; an arena that does not could never
  // be matched label-for-label the way the walk matches a host.
  std::string text(label);
  if (temporal_[parent].rule) text += "." + temporal_[parent].rule->to_string();
  auto rule = Rule::parse(text, Section::kIcann);
  if (!rule.ok() || rule->kind() != RuleKind::kNormal || rule->labels().size() != depth ||
      rule->to_string() != text) {
    return err("store.bad-record", "arena label path \"" + text + "\" is not a canonical rule");
  }
  const auto index = static_cast<std::uint32_t>(temporal_.size());
  temporal_[parent].children.insert(temporal_[parent].children.begin() + cursor++,
                                    TemporalChild{hash, std::string(label), index});
  temporal_.push_back(TemporalNode{{}, std::move(*rule), {}});
  return index;
}

util::Result<bool> Builder::add_temporal(const snapshot::HeaderView& h,
                                         std::span<const std::uint8_t> snapshot_bytes,
                                         std::uint32_t version) {
  // The loader has validated every index below; what it does not promise is
  // a tree (two edges into one node, or a cycle, would give a node several
  // label paths), so that is checked here.
  const std::uint8_t* const nodes = snapshot_bytes.data() + h.nodes_off;
  const std::uint8_t* const hashes = snapshot_bytes.data() + h.hashes_off;
  const std::uint8_t* const children = snapshot_bytes.data() + h.children_off;
  const char* const pool = reinterpret_cast<const char*>(snapshot_bytes.data() + h.pool_off);
  const auto node_count = static_cast<std::size_t>(h.node_count);

  struct Visit {
    std::uint32_t node, temporal, depth;
  };
  std::vector<Visit> stack{{0, 0, 0}};
  std::vector<bool> seen(node_count, false);
  seen[0] = true;
  std::vector<std::uint16_t> bits(temporal_.size(), 0);  // flags | sections << 8
  while (!stack.empty()) {
    const Visit at = stack.back();
    stack.pop_back();
    const std::uint8_t* const n = nodes + at.node * kNodeBytes;
    if (at.temporal >= bits.size()) bits.resize(temporal_.size(), 0);
    bits[at.temporal] = static_cast<std::uint16_t>(n[8] | (n[9] << 8));
    // A walk never descends past kMaxMatchDepth - 1 labels, so deeper nodes
    // can never change an answer.
    if (at.depth + 1 >= detail::kMaxMatchDepth) continue;
    std::size_t cursor = 0;
    for (std::uint32_t c = get_u32(n); c < get_u32(n + 4); ++c) {
      const std::uint8_t* const child = children + std::size_t{c} * kChildBytes;
      const std::uint32_t node = get_u32(child + 8);
      if (seen[node]) {
        return err("store.bad-record", "version " + std::to_string(version) +
                                           ": arena is not a tree (node " +
                                           std::to_string(node) + " reached twice)");
      }
      seen[node] = true;
      const std::string_view label(pool + get_u32(child), get_u32(child + 4));
      auto next = temporal_child(at.temporal, get_u32(hashes + std::size_t{c} * 4), label,
                                 at.depth + 1, cursor);
      if (!next.ok()) {
        return err(next.error().code,
                   "version " + std::to_string(version) + ": " + next.error().message);
      }
      stack.push_back({node, *next, at.depth + 1});
    }
  }
  bits.resize(temporal_.size(), 0);

  // A change point wherever a node's bits differ from its last change point
  // (no rule, before its first one).
  for (std::size_t t = 0; t < temporal_.size(); ++t) {
    std::vector<Epoch>& epochs = temporal_[t].epochs;
    const std::uint16_t last =
        epochs.empty() ? 0
                       : static_cast<std::uint16_t>(epochs.back().flags |
                                                    (epochs.back().sections << 8));
    if (bits[t] == last) continue;
    epochs.push_back(Epoch{version, static_cast<std::uint8_t>(bits[t] & 0xFF),
                           static_cast<std::uint8_t>(bits[t] >> 8), 0});
  }
  temporal_section_.clear();
  return true;
}

const std::string& Builder::temporal_section() const {
  if (!temporal_section_.empty()) return temporal_section_;
  // The union trie as a List: one normal rule per path that ever carried a
  // rule. Its compiled arena has exactly these paths; the flags it compiles
  // are never read.
  std::vector<Rule> rules;
  for (const TemporalNode& t : temporal_) {
    if (t.rule && !t.epochs.empty()) rules.push_back(*t.rule);
  }
  const std::size_t rule_count = rules.size();
  const CompiledMatcher arena(List::from_rules(std::move(rules)));

  // Each path's arena node is the deepest one a walk of its own labels visits.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> placed;  // (arena node, temporal node)
  for (std::uint32_t t = 0; t < temporal_.size(); ++t) {
    if (temporal_[t].epochs.empty()) continue;
    std::uint32_t node = 0;
    if (temporal_[t].rule) {
      (void)arena.match_view_with(temporal_[t].rule->to_string(),
                                  [&node](const CompiledMatcher&, std::uint32_t n) {
                                    node = n;
                                    return CompiledMatcher::NodeRules{};
                                  });
    }
    placed.emplace_back(node, t);
  }
  std::sort(placed.begin(), placed.end());

  snapshot::Metadata meta;
  meta.source_date = versions_.empty() ? util::Date{0} : versions_.back().source_date;
  meta.rule_count = rule_count;
  std::string out = snapshot::serialize(arena, meta);
  out.resize(static_cast<std::size_t>(align8(out.size())), '\0');
  std::uint32_t next = 0;
  auto placed_it = placed.begin();
  for (std::uint32_t n = 0; n <= arena.node_count(); ++n) {
    put_u32(out, next);
    if (placed_it != placed.end() && placed_it->first == n) {
      next += static_cast<std::uint32_t>(temporal_[placed_it->second].epochs.size());
      ++placed_it;
    }
  }
  for (const auto& [node, t] : placed) {
    for (const Epoch& e : temporal_[t].epochs) {
      put_u32(out, e.first_version);
      out.push_back(static_cast<char>(e.flags));
      out.push_back(static_cast<char>(e.sections));
      out.append(2, '\0');
    }
  }
  temporal_section_ = std::move(out);
  return temporal_section_;
}

Stats Builder::stats() const {
  Stats st;
  st.standalone_bytes = standalone_bytes_;
  st.version_count = versions_.size();
  st.temporal_bytes = temporal_section().size();
  st.file_bytes = kHeaderBytes + versions_.size() * kVersionRecordBytes + st.temporal_bytes;
  return st;
}

util::Result<std::string> Builder::serialize() const {
  if (versions_.empty()) return err("store.empty", "no versions added");

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(kHeaderBytes));
  put_u64(out, versions_.size());
  put_u64(out, stats().file_bytes);
  put_u64(out, standalone_bytes_);
  put_u64(out, 0);  // the checksum, filled in last
  for (const snapshot::Metadata& meta : versions_) {
    put_u64(out, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(meta.source_date.days_since_epoch())));
    put_u64(out, meta.rule_count);
  }
  out += temporal_section();
  const std::uint64_t sum =
      file_checksum(reinterpret_cast<const std::uint8_t*>(out.data()), out.size());
  set_u64(reinterpret_cast<std::uint8_t*>(out.data()) + kChecksumOffset, sum);
  return out;
}

util::Result<std::uint64_t> Builder::write_file(const std::string& path) const {
  auto bytes = serialize();
  if (!bytes.ok()) return bytes.error();
  return snapshot::write_file_durable(path, as_bytes(*bytes));
}

// ---------------------------------------------------------------------------
// StoreView
// ---------------------------------------------------------------------------

StoreView::~StoreView() = default;

util::Result<std::shared_ptr<const StoreView>> StoreView::open(const std::string& path) {
  auto file = snapshot::read_file(path);
  if (!file.ok()) return err("store.io", file.error().message);
  const std::uint64_t size = file->bytes.size();
  if (size < kHeaderBytes) {
    return err("store.truncated", path + " is " + std::to_string(size) +
                                      " bytes; header needs " + std::to_string(kHeaderBytes));
  }
  const std::uint8_t* const p = file->bytes.data();

  // --- header ---------------------------------------------------------------
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return err("store.bad-magic", "magic bytes are not PSLSTOR1");
  }
  if (get_u32(p + 8) != kFormatVersion) {
    return err("store.bad-version", "format version " + std::to_string(get_u32(p + 8)) +
                                        " unsupported (this build reads " +
                                        std::to_string(kFormatVersion) +
                                        "); rebuild the store with `psltool store build`");
  }
  if (get_u32(p + 12) != kHeaderBytes) {
    return err("store.bad-header", "header size field must be " + std::to_string(kHeaderBytes));
  }
  const std::uint64_t version_count = get_u64(p + 16);
  const std::uint64_t total = get_u64(p + 24);
  const std::uint64_t standalone_bytes = get_u64(p + 32);
  if (total != size) {
    return err("store.truncated", path + " is " + std::to_string(size) +
                                      " bytes; header declares " + std::to_string(total));
  }
  if (version_count == 0 || version_count > (size - kHeaderBytes) / kVersionRecordBytes) {
    return err("store.bad-header", "version count does not fit the file");
  }
  if (file_checksum(p, size) != get_u64(p + kChecksumOffset)) {
    return err("store.checksum", "file checksum mismatch");
  }

  std::shared_ptr<StoreView> view(new StoreView());
  view->path_ = path;
  view->bytes_ = std::move(file->owner);

  // --- version table --------------------------------------------------------
  view->versions_.reserve(version_count);
  for (std::uint64_t v = 0; v < version_count; ++v) {
    const std::uint8_t* const rec = p + kHeaderBytes + v * kVersionRecordBytes;
    const auto days = static_cast<std::int64_t>(get_u64(rec));
    if (days < INT32_MIN || days > INT32_MAX) {
      return err("store.bad-record", "version " + std::to_string(v) + ": date out of range");
    }
    snapshot::Metadata meta;
    meta.source_date = util::Date{static_cast<std::int32_t>(days)};
    meta.rule_count = get_u64(rec + 8);
    if (!view->versions_.empty() && !(view->versions_.back().source_date < meta.source_date)) {
      return err("store.bad-record", "version dates must be strictly increasing");
    }
    view->versions_.push_back(meta);
  }

  const std::uint64_t temporal_off = kHeaderBytes + version_count * kVersionRecordBytes;
  const std::span<const std::uint8_t> temporal(p + temporal_off,
                                               static_cast<std::size_t>(size - temporal_off));
  if (auto bad = view->adopt_temporal(temporal)) {
    return err("store.bad-temporal", *bad);
  }

  view->stats_.file_bytes = size;
  view->stats_.standalone_bytes = standalone_bytes;
  view->stats_.version_count = version_count;
  view->stats_.temporal_bytes = temporal.size();
  return std::shared_ptr<const StoreView>(std::move(view));
}

util::Result<std::size_t> StoreView::version_index_at(util::Date date) const {
  if (date < versions_.front().source_date) {
    return err("store.no-version", "date " + date.to_string() +
                                       " precedes the first stored version (" +
                                       versions_.front().source_date.to_string() + ")");
  }
  // Last version with source_date <= date.
  std::size_t lo = 0, hi = versions_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (versions_[mid].source_date <= date) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

util::Result<snapshot::Metadata> StoreView::match_at(util::Date date,
                                                     std::span<const std::string_view> hosts,
                                                     std::span<MatchView> out) const {
  const auto v = version_index_at(date);
  if (!v.ok()) return v.error();
  const std::size_t n = std::min(hosts.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = match_version(static_cast<std::uint32_t>(*v), hosts[i]);
  }
  return versions_[*v];
}

util::Result<snapshot::Snapshot> StoreView::open_version(std::size_t v) const {
  if (v >= versions_.size()) {
    return err("store.no-version", "version index " + std::to_string(v) + " out of range");
  }
  std::vector<CompiledMatcher::NodeRules> rules(temporal_->matcher.node_count());
  for (std::uint32_t n = 0; n < rules.size(); ++n) {
    rules[n] = rules_at(n, static_cast<std::uint32_t>(v));
  }
  return snapshot::with_rules(*temporal_, rules, versions_[v], bytes_);
}

util::Result<snapshot::Snapshot> StoreView::open_at(util::Date date) const {
  auto idx = version_index_at(date);
  if (!idx.ok()) return idx.error();
  return open_version(*idx);
}

std::optional<std::string> StoreView::adopt_temporal(std::span<const std::uint8_t> bytes) {
  const auto header = snapshot::parse_header(bytes);
  if (!header.ok()) return header.error().code + ": " + header.error().message;
  if (header->total_bytes > bytes.size()) return "snapshot overruns the section";
  auto arena = snapshot::load_view(bytes.first(static_cast<std::size_t>(header->total_bytes)));
  if (!arena.ok()) return arena.error().code + ": " + arena.error().message;

  // [snapshot | pad to 8 | index: node_count + 1 u32 | epochs: 8 bytes each]
  const std::uint64_t index_off = align8(header->total_bytes);
  const std::uint64_t index_count = header->node_count + 1;
  if (index_off > bytes.size() || (bytes.size() - index_off) / 4 < index_count) {
    return "epoch index truncated";
  }
  for (std::uint64_t g = header->total_bytes; g < index_off; ++g) {
    if (bytes[g] != 0) return "nonzero padding after the snapshot";
  }
  const std::uint64_t epochs_off = index_off + index_count * 4;
  if ((bytes.size() - epochs_off) % sizeof(Epoch) != 0) {
    return "epoch table size not a multiple of 8";
  }
  const std::span<const std::uint32_t> index(
      reinterpret_cast<const std::uint32_t*>(bytes.data() + index_off),
      static_cast<std::size_t>(index_count));
  const std::span<const Epoch> epochs(reinterpret_cast<const Epoch*>(bytes.data() + epochs_off),
                                      (bytes.size() - epochs_off) / sizeof(Epoch));
  if (index.front() != 0 || index.back() != epochs.size()) {
    return "epoch index does not span the table";
  }
  for (std::size_t n = 0; n + 1 < index.size(); ++n) {
    if (index[n] > index[n + 1] || index[n + 1] > epochs.size()) {
      return "epoch index not monotone at node " + std::to_string(n);
    }
    for (std::uint32_t e = index[n]; e < index[n + 1]; ++e) {
      const Epoch& ep = epochs[e];
      if (ep.first_version >= versions_.size() ||
          (e > index[n] && ep.first_version <= epochs[e - 1].first_version)) {
        return "epoch " + std::to_string(e) + ": version out of order or range";
      }
      if ((ep.flags & ~kKnownFlags) != 0 || (ep.sections & ~ep.flags) != 0 ||
          ep.reserved != 0) {
        return "epoch " + std::to_string(e) + ": unknown rule bits";
      }
    }
  }
  temporal_ = std::move(*arena);
  epoch_index_ = index;
  epochs_ = epochs;
  return std::nullopt;
}

CompiledMatcher::NodeRules StoreView::rules_at(std::uint32_t node,
                                               std::uint32_t version) const noexcept {
  CompiledMatcher::NodeRules rules;
  for (const Epoch& e : epochs_of(node)) {
    if (e.first_version > version) break;
    rules = {e.flags, e.sections};
  }
  return rules;
}

MatchView StoreView::match_version(std::uint32_t version, std::string_view host) const noexcept {
  return temporal_->matcher.match_view_with(
      host, [this, version](const CompiledMatcher&, std::uint32_t node) {
        return rules_at(node, version);
      });
}

util::Result<std::vector<DivergenceRange>> StoreView::divergence(std::string_view host) const {
  // The nodes a walk visits depend only on the trie's shape, never on rule
  // bits, so one walk finds every version where this host's answer can
  // change: the change points of the nodes on its path.
  std::vector<std::uint32_t> cuts{0};
  std::uint32_t last = 0xFFFFFFFFu;
  (void)temporal_->matcher.match_view_with(host, [&](const CompiledMatcher&, std::uint32_t node) {
    if (node != last) {
      last = node;
      for (const Epoch& e : epochs_of(node)) cuts.push_back(e.first_version);
    }
    return CompiledMatcher::NodeRules{};
  });
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<DivergenceRange> out;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const std::uint32_t first = cuts[i];
    const std::size_t end = i + 1 < cuts.size() ? cuts[i + 1] : versions_.size();
    const MatchView m = match_version(first, host);
    const util::Date first_date = versions_[first].source_date;
    const util::Date last_date = versions_[end - 1].source_date;
    if (out.empty() || out.back().registrable_domain != m.registrable_domain) {
      out.push_back(DivergenceRange{first_date, last_date, std::string(m.registrable_domain)});
    } else {
      out.back().last_date = last_date;
    }
  }
  return out;
}

}  // namespace psl::store
