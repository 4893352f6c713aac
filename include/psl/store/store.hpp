// psl::store — a single-file multi-version snapshot store with time-travel
// queries.
//
// The paper's headline result is that *which PSL version you ship* changes
// which hosts share a site. The store makes that longitudinal corpus — all
// 1,142 historical list versions — a single artifact holding ONE
// trie: the union of every rule any version held, with each node's rule
// bits recorded as a short run of change points over the versions. Every
// question about one version (match_at, open_version) or about all of them
// at once (divergence) is answered from that one structure.
//
// File layout ("PSLSTOR1", all integers little-endian):
//
//   offset  size  field
//        0     8  magic "PSLSTOR1"
//        8     4  format version (currently 3)
//       12     4  header size in bytes (48)
//       16     8  version count V (>= 1)
//       24     8  total file size
//       32     8  summed byte size of the V standalone snapshots
//       40     8  FNV-1a-64 checksum over every other byte of the file
//                 ([0, 40) then [48, EOF))
//
//   [ header | version table (V x 16 bytes) | temporal section ]
//
// Format 1 and 2 files (per-version delta-coded segments) are rejected with
// store.bad-version; rebuild them with `psltool store build`.
//
// Version record (16 bytes): int64 source date (days since 1970-01-01),
// u64 rule count — the version's snapshot::Metadata. Records are sorted by
// strictly increasing source date; the epoch index is a binary search over
// this table.
//
// Temporal section: one arena over every rule any version held. It holds
//   * a PSLSNAP1 snapshot of the union trie (the CompiledMatcher arena
//     encoding; its own node flags are not read);
//   * zero padding to 8 bytes, then an epoch index of node_count + 1 u32s:
//     node n's change points are entries [index[n], index[n + 1]);
//   * the change points, 8 bytes each (Epoch): u32 first version, u8 rule
//     flags, u8 section bits, u16 zero. From `first_version` until the
//     node's next change point the node carries exactly those rule bits; a
//     node has no rule before its first change point.
// A version's answer is one walk of the union trie reading each node's bits
// at that version (match_at). The walk descends through nodes that carry
// no rule without changing the answer, so this equals the version's own
// trie. divergence(host) walks the host's labels once, splits the version
// range at the change points of the nodes on that path, and runs one match
// per piece.
//
// Integrity: the checksum covers every byte but its own, and open() then
// validates the version table (strictly increasing dates) and the whole
// temporal section: its snapshot through snapshot::load_view, its epoch
// index for monotone in-bounds runs, and every change point for strictly
// increasing in-range versions and known flag bits. A single flipped byte
// anywhere in the file is rejected at open.
//
// Error codes ("store." prefix, stable):
//   store.io            file could not be read / written
//   store.bad-magic     magic bytes are not "PSLSTOR1"
//   store.bad-version   format version unsupported
//   store.bad-header    header fields inconsistent
//   store.truncated     file shorter than the declared layout
//   store.checksum      file checksum mismatch
//   store.bad-record    version record invalid (dates, rule labels)
//   store.bad-temporal  temporal section invalid (snapshot, index, epochs)
//   store.out-of-order  Builder::add versions not strictly date-increasing
//   store.empty         Builder::serialize with no versions
//   store.no-version    query date precedes the first stored version
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "psl/psl/match.hpp"
#include "psl/psl/rule.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/date.hpp"
#include "psl/util/result.hpp"

namespace psl::store {

inline constexpr char kMagic[8] = {'P', 'S', 'L', 'S', 'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::size_t kHeaderBytes = 48;
inline constexpr std::size_t kVersionRecordBytes = 16;

/// One change point of a temporal-arena node: from version `first_version`
/// until the node's next change point, the node carries rule bits `flags` /
/// `sections` (CompiledMatcher::NodeRules). The on-disk entry is this
/// struct verbatim, little-endian like the arena itself.
struct Epoch {
  std::uint32_t first_version = 0;
  std::uint8_t flags = 0;
  std::uint8_t sections = 0;
  std::uint16_t reserved = 0;  ///< always zero
};
static_assert(sizeof(Epoch) == 8 && alignof(Epoch) == 4);

/// One maximal run of consecutive list versions over which a host's
/// registrable domain is constant. divergence() returns a full partition of
/// the store's version range into these runs.
struct DivergenceRange {
  util::Date first_date{0};        ///< date of the first version in the run
  util::Date last_date{0};         ///< date of the last version in the run
  std::string registrable_domain;  ///< "" when the host has none in this run

  friend bool operator==(const DivergenceRange&, const DivergenceRange&) = default;
};

/// Store-level accounting, computed once at open / build time.
struct Stats {
  std::uint64_t file_bytes = 0;        ///< total store file size
  std::uint64_t standalone_bytes = 0;  ///< summed standalone snapshot sizes
  std::uint64_t version_count = 0;
  std::uint64_t temporal_bytes = 0;  ///< temporal section (union arena + epochs)

  /// Store size as a fraction of shipping every version standalone; the
  /// acceptance bar is < 0.30 over the full history corpus.
  double dedup_ratio() const {
    return standalone_bytes == 0
               ? 1.0
               : static_cast<double>(file_bytes) / static_cast<double>(standalone_bytes);
  }
};

/// Read side: an immutable, fully validated view over one store file's
/// bytes, read into memory the view owns. Thread-safe and stateless after
/// open: no query allocates anything the view keeps. Snapshots returned by
/// open_version keep those bytes alive via their retain pointer, so they
/// remain valid after the StoreView is destroyed.
class StoreView {
 public:
  /// Read `path` into an owned 8-byte-aligned buffer (snapshot::read_file)
  /// and validate all of it: header, file checksum, version table and the
  /// whole temporal section. The view never reads the file again, so
  /// truncating or rewriting it in place cannot disturb a view already
  /// open; the next open of the damaged file fails validation instead.
  static util::Result<std::shared_ptr<const StoreView>> open(const std::string& path);

  ~StoreView();
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  std::size_t version_count() const noexcept { return versions_.size(); }
  util::Date version_date(std::size_t v) const noexcept { return versions_[v].source_date; }
  std::uint64_t rule_count(std::size_t v) const noexcept { return versions_[v].rule_count; }
  const std::string& path() const noexcept { return path_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Epoch index: the newest version with source_date <= `date`
  /// ("store.no-version" when `date` precedes the first version).
  util::Result<std::size_t> version_index_at(util::Date date) const;

  /// Answer `hosts` as the version in effect at `date` does: out[i] is that
  /// version's match_view(hosts[i]) for the first min(hosts.size(),
  /// out.size()) hosts. Each host is one walk of the union arena reading
  /// every node's rule bits at that version; nothing is materialized, locked
  /// or cached. The views point into the caller's host buffers. Returns the
  /// version's metadata.
  util::Result<snapshot::Metadata> match_at(util::Date date,
                                            std::span<const std::string_view> hosts,
                                            std::span<MatchView> out) const;

  /// Version `v` as a standalone Snapshot, for callers that serve one
  /// version (psld boot, Engine::pin_version): the union arena with every
  /// node's rule bits set to version v's (snapshot::with_rules). Only the
  /// node array is built; hashes, children and pool are shared zero-copy
  /// with the view's buffer. It answers exactly like version v's own arena, but
  /// its bytes are not that arena's: it keeps the union's rule-less nodes.
  /// Nothing is cached.
  util::Result<snapshot::Snapshot> open_version(std::size_t v) const;

  /// version_index_at + open_version.
  util::Result<snapshot::Snapshot> open_at(util::Date date) const;

  /// The paper's Fig. 7 question as a query: how did `host`'s registrable
  /// domain evolve across every stored list version? Returns consecutive
  /// equal-domain runs covering the whole version range, oldest first.
  /// One walk finds the versions where a rule on the host's path changes,
  /// then one match per unchanged piece.
  util::Result<std::vector<DivergenceRange>> divergence(std::string_view host) const;

 private:
  StoreView() = default;

  /// Validate the temporal section `bytes` (inside bytes_) and point
  /// the union arena and epoch spans at it; the reason on failure.
  std::optional<std::string> adopt_temporal(std::span<const std::uint8_t> bytes);

  /// Node `node`'s rule bits in the temporal arena at version `version`.
  CompiledMatcher::NodeRules rules_at(std::uint32_t node, std::uint32_t version) const noexcept;
  std::span<const Epoch> epochs_of(std::uint32_t node) const noexcept {
    return epochs_.subspan(epoch_index_[node], epoch_index_[node + 1] - epoch_index_[node]);
  }
  /// Version `version`'s answer for `host`: one walk of the union arena.
  MatchView match_version(std::uint32_t version, std::string_view host) const noexcept;

  std::string path_;
  std::shared_ptr<const void> bytes_;  ///< the file's bytes, owned
  std::vector<snapshot::Metadata> versions_;
  Stats stats_;
  /// The temporal section: the union arena (zero-copy into bytes_) and
  /// its per-node change points.
  std::optional<snapshot::Snapshot> temporal_;
  std::span<const std::uint32_t> epoch_index_;
  std::span<const Epoch> epochs_;
};

/// Write side: accumulate versions (strictly increasing source date), then
/// serialize / publish. Each version's trie is merged into the temporal
/// arena, noting where every node's rule bits change. Not thread-safe;
/// build once, publish once.
class Builder {
 public:
  Builder() = default;

  /// Add one version from its serialized standalone snapshot bytes.
  /// Validates via the snapshot loader first; the arena must also be a tree
  /// whose labels are canonical rule labels, as every compiled List is
  /// ("store.bad-record" otherwise). Returns the version index.
  util::Result<std::size_t> add_snapshot(std::span<const std::uint8_t> snapshot_bytes);

  /// serialize(matcher, meta) + add_snapshot.
  util::Result<std::size_t> add(const CompiledMatcher& matcher, const snapshot::Metadata& meta);

  std::size_t version_count() const noexcept { return versions_.size(); }
  /// Stats as of the versions added so far (file_bytes = serialized size).
  Stats stats() const;

  /// The complete store file image ("store.empty" when no versions).
  util::Result<std::string> serialize() const;

  /// serialize() + snapshot::write_file_durable (tmp + fsync + rename +
  /// directory fsync). Returns the byte count written.
  util::Result<std::uint64_t> write_file(const std::string& path) const;

 private:
  /// One edge of the temporal trie.
  struct TemporalChild {
    std::uint32_t hash = 0;  ///< detail::fnv1a_reverse(label)
    std::string label;
    std::uint32_t node = 0;
  };
  /// One label path of the temporal trie (index 0 is the root).
  struct TemporalNode {
    /// Sorted by (hash, label), the order of an arena's own child ranges, so
    /// merging a version's children in is one linear pass.
    std::vector<TemporalChild> children;
    std::optional<Rule> rule;   ///< the path as a normal rule (none for the root)
    std::vector<Epoch> epochs;  ///< change points, by increasing version
  };

  /// Merge one validated arena into the temporal trie as version `version`.
  util::Result<bool> add_temporal(const snapshot::HeaderView& h,
                                  std::span<const std::uint8_t> snapshot_bytes,
                                  std::uint32_t version);
  /// The temporal trie child of `parent` labelled `label` (hash `hash`),
  /// created on first use ("store.bad-record" when `label` is not a
  /// canonical rule label). `cursor` is the merge position in the parent's
  /// children: lookups of one arena node's children, made in its (hash,
  /// label) order, each resume where the last one stopped.
  util::Result<std::uint32_t> temporal_child(std::uint32_t parent, std::uint32_t hash,
                                             std::string_view label, std::size_t depth,
                                             std::size_t& cursor);
  /// The serialized temporal section (see the file layout above), built
  /// once per set of added versions and kept for stats() and serialize().
  const std::string& temporal_section() const;

  std::vector<snapshot::Metadata> versions_;
  std::uint64_t standalone_bytes_ = 0;
  std::vector<TemporalNode> temporal_ = std::vector<TemporalNode>(1);
  /// temporal_section()'s bytes; empty until built, cleared by every add.
  mutable std::string temporal_section_;
};

}  // namespace psl::store
