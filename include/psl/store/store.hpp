// psl::store — a single-file, memory-mapped multi-version snapshot store
// with time-travel queries (ROADMAP item 1).
//
// The paper's headline result is that *which PSL version you ship* changes
// which hosts share a site. The store makes that longitudinal corpus — all
// 1,142 historical list versions — a single mmap-able artifact: an epoch
// index maps source_date → version record, and each record references the
// four arena sections (nodes / hashes / children / pool) as shared
// SEGMENTS, so the 1,142 near-identical versions pay only for what changed
// between them.
//
// File layout ("PSLSTOR1", all integers little-endian):
//
//   offset  size  field
//        0     8  magic "PSLSTOR1"
//        8     4  format version (currently 2)
//       12     4  header size in bytes (120)
//       16     8  version count V (>= 1)
//       24     8  segment count S (>= 1)
//       32     8  segment table offset
//       40     8  version table offset
//       48     8  total file size
//       56     8  FNV-1a-64 checksum: segment table bytes
//       64     8  FNV-1a-64 checksum: version table bytes
//       72     8  newest source date, days since 1970-01-01 (int64)
//       80     8  summed byte size of the V standalone snapshots
//       88     8  temporal section offset
//       96     8  temporal section size
//      104     8  FNV-1a-64 checksum: temporal section bytes
//      112     8  FNV-1a-64 checksum over header bytes [0, 112)
//
//   [ header | segment data (each 8-aligned, zero padding) |
//     temporal section (8-aligned, zero padding after) |
//     segment table (S x 40 bytes) | version table (V x 112 bytes) ]
//
// Format version 1 files (no temporal section) are rejected with
// store.bad-version; rebuild them with `psltool store build`.
//
// Segment table entry (40 bytes): u64 data offset, u64 stored size,
// u64 decoded size, u64 FNV-1a-64 of the STORED bytes, u32 kind
// (0 = raw, 1 = delta), u32 base segment index (0xFFFFFFFF for raw; a
// delta's base always has a smaller index, so chains terminate).
//
// Version record (112 bytes): the version's standalone PSLSNAP1 header,
// VERBATIM (96 bytes), followed by four u32 segment indices (nodes,
// hashes, children, pool). Records are sorted by strictly increasing
// source date — the epoch index is a binary search over this table.
//
// Temporal section: one arena over every rule any version held, so a
// question about all versions at once is one walk, not V. It holds
//   * a PSLSNAP1 snapshot of the union trie (the CompiledMatcher arena
//     encoding; its own node flags are not read);
//   * zero padding to 8 bytes, then an epoch index of node_count + 1 u32s:
//     node n's change points are entries [index[n], index[n + 1]);
//   * the change points, 8 bytes each (Epoch): u32 first version, u8 rule
//     flags, u8 section bits, u16 zero. From `first_version` until the
//     node's next change point the node carries exactly those rule bits; a
//     node has no rule before its first change point.
// divergence(host) walks the host's labels once in the union trie, splits
// the version range at the change points of the nodes on that path, and
// runs one match per piece with that piece's bits (a handful of walks, a
// few microseconds, instead of one walk per version).
//
// Dedup strategy. Whole-section content-hash dedup alone recovers little:
// inserting one rule shifts child offsets in every later node, so byte-wise
// the sections diverge globally even when the list barely changed. Segments
// therefore come in two kinds:
//   * raw — the section bytes verbatim; mmapped zero-copy.
//   * delta — an op program against an earlier segment's DECODED bytes:
//     COPY/INSERT/SKIP plus a strided ADDROW op that applies a constant
//     per-lane u32 delta across a run of fixed-width rows (the "+1 to both
//     child offsets in every following node" pattern costs ~8 bytes per
//     run instead of rewriting the section).
// The Builder round-trip-verifies every delta it emits (decode(base, ops)
// must equal the new section bit-for-bit, else it falls back to raw), and
// forces a raw keyframe when a chain gets deep — so a corrupt encoder can
// cost space but never correctness.
//
// Bit-identity proof. Because the stored standalone header is verbatim and
// snapshot::load_view_sections re-verifies its five checksums against the
// reassembled sections, a successfully materialized version is PROVEN equal
// to the standalone snapshot serialize() would produce — the store cannot
// silently drift from the per-version ground truth the sweeper uses.
//
// Integrity: the header checksum covers the header, the two table checksums
// cover the tables, each segment's stored bytes are hashed, inter-segment
// padding must be zero, and materialization re-runs full snapshot
// validation. The temporal section is checksummed as a whole and fully
// validated at open: its snapshot through snapshot::load_view, its epoch
// index for monotone in-bounds runs, and every change point for strictly
// increasing in-range versions and known flag bits. A single flipped byte
// anywhere in the file is rejected.
//
// Error codes ("store." prefix, stable):
//   store.io            file could not be read / mapped / written
//   store.bad-magic     magic bytes are not "PSLSTOR1"
//   store.bad-version   format version unsupported
//   store.bad-header    header fields inconsistent
//   store.truncated     file shorter than the declared layout
//   store.checksum      header / table / segment checksum mismatch
//   store.bad-segment   segment table entry invalid (bounds, base, kind)
//   store.bad-record    version record invalid (dates, indices, sizes)
//   store.bad-padding   nonzero bytes between segments
//   store.bad-delta     delta program malformed or decodes wrong
//   store.bad-temporal  temporal section invalid (snapshot, index, epochs)
//   store.out-of-order  Builder::add versions not strictly date-increasing
//   store.empty         Builder::serialize with no versions
//   store.no-version    query date precedes the first stored version
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "psl/psl/rule.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/date.hpp"
#include "psl/util/result.hpp"

namespace psl::store {

inline constexpr char kMagic[8] = {'P', 'S', 'L', 'S', 'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kHeaderBytes = 120;
inline constexpr std::size_t kSegmentEntryBytes = 40;
inline constexpr std::size_t kVersionRecordBytes = snapshot::kHeaderBytes + 4 * 4;
inline constexpr std::uint32_t kRawSegment = 0;
inline constexpr std::uint32_t kDeltaSegment = 1;
inline constexpr std::uint32_t kNoBase = 0xFFFFFFFFu;
/// A delta chain longer than this forces a raw keyframe: materializing any
/// version then costs at most this many decode passes.
inline constexpr std::uint32_t kMaxChainDepth = 32;

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
  std::uint64_t segment_count = 0;
  std::uint64_t raw_segments = 0;
  std::uint64_t delta_segments = 0;
  std::uint64_t raw_bytes = 0;    ///< stored bytes in raw segments
  std::uint64_t delta_bytes = 0;  ///< stored bytes in delta programs
  std::uint64_t temporal_bytes = 0;  ///< temporal section (union arena + epochs)

  /// Store size as a fraction of shipping every version standalone; the
  /// acceptance bar is < 0.30 over the full history corpus.
  double dedup_ratio() const {
    return standalone_bytes == 0
               ? 1.0
               : static_cast<double>(file_bytes) / static_cast<double>(standalone_bytes);
  }
};

/// Read side: an immutable, fully validated view over one mmapped store
/// file. Thread-safe; materialized versions and decoded delta segments are
/// cached internally (shared, built at most once). Snapshots returned by
/// open_version keep the mapping and any decoded buffers alive via their
/// retain pointer, so they remain valid after the StoreView is destroyed.
class StoreView {
 public:
  /// mmap `path` read-only and validate everything except the per-version
  /// snapshot internals (those are re-verified by materialization): header,
  /// table checksums, segment bounds/hashes/padding, record ordering,
  /// section sizes and the whole temporal section. Cheap per version; one
  /// pass over the file for hashes.
  static util::Result<std::shared_ptr<const StoreView>> open(const std::string& path);

  ~StoreView();
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  std::size_t version_count() const noexcept { return versions_.size(); }
  util::Date version_date(std::size_t v) const noexcept { return versions_[v].meta.source_date; }
  std::uint64_t rule_count(std::size_t v) const noexcept { return versions_[v].meta.rule_count; }
  const std::string& path() const noexcept { return path_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Epoch index: the newest version with source_date <= `date`
  /// ("store.no-version" when `date` precedes the first version).
  util::Result<std::size_t> version_index_at(util::Date date) const;

  /// Materialize version `v` through snapshot::load_view_sections — full
  /// structural + checksum validation against the verbatim standalone
  /// header. Raw sections are served zero-copy from the mapping; delta
  /// sections decode once into a shared cached buffer. The result is
  /// cached: repeated opens are two atomic refcount bumps.
  util::Result<snapshot::Snapshot> open_version(std::size_t v) const;

  /// version_index_at + open_version.
  util::Result<snapshot::Snapshot> open_at(util::Date date) const;

  /// The paper's Fig. 7 question as a query: how did `host`'s registrable
  /// domain evolve across every stored list version? Returns consecutive
  /// equal-domain runs covering the whole version range, oldest first.
  /// Answered from the temporal section without materializing any version:
  /// one walk finds the versions where a rule on the host's path changes,
  /// then one match per unchanged piece. Each answer equals the version's
  /// own matcher's, which is equivalence-tested against List::match.
  util::Result<std::vector<DivergenceRange>> divergence(std::string_view host) const;

 private:
  struct Segment {
    std::uint64_t offset = 0;   ///< of the stored bytes, within the file
    std::uint64_t stored = 0;   ///< stored byte count
    std::uint64_t decoded = 0;  ///< decoded byte count (== stored for raw)
    std::uint64_t hash = 0;     ///< FNV-1a-64 of the stored bytes
    std::uint32_t kind = kRawSegment;
    std::uint32_t base = kNoBase;
  };
  struct VersionRecord {
    snapshot::Metadata meta;
    std::uint64_t header_offset = 0;  ///< of the verbatim 96-byte header
    std::uint32_t seg[4] = {0, 0, 0, 0};  ///< nodes, hashes, children, pool
    std::uint64_t section_bytes[4] = {0, 0, 0, 0};
  };
  struct Mapping;  // RAII mmap, defined in store.cpp

  StoreView() = default;

  /// Validate the temporal section `bytes` (inside the mapping) and point
  /// the union arena and epoch spans at it; the reason on failure.
  std::optional<std::string> adopt_temporal(std::span<const std::uint8_t> bytes);

  /// Node `node`'s rule bits in the temporal arena at version `version`.
  CompiledMatcher::NodeRules rules_at(std::uint32_t node, std::uint32_t version) const noexcept;
  std::span<const Epoch> epochs_of(std::uint32_t node) const noexcept {
    return epochs_.subspan(epoch_index_[node], epoch_index_[node + 1] - epoch_index_[node]);
  }

  /// Decoded bytes of segment `s` plus whatever keeps them alive (null for
  /// raw segments — the mapping itself is retained separately).
  util::Result<std::pair<std::span<const std::uint8_t>, std::shared_ptr<const void>>>
  segment_bytes(std::uint32_t s) const;

  std::string path_;
  std::shared_ptr<const Mapping> mapping_;
  std::vector<Segment> segments_;
  std::vector<VersionRecord> versions_;
  Stats stats_;
  /// The temporal section: the union arena (zero-copy into the mapping) and
  /// its per-node change points.
  std::optional<snapshot::Snapshot> temporal_;
  std::span<const std::uint32_t> epoch_index_;
  std::span<const Epoch> epochs_;

  mutable std::mutex cache_mutex_;
  /// Decoded delta segments, indexed by segment id (unset for raw / not yet
  /// decoded). u64 storage gives the 8-byte alignment sections require.
  mutable std::vector<std::shared_ptr<const std::vector<std::uint64_t>>> decoded_;
  mutable std::vector<std::optional<snapshot::Snapshot>> materialized_;
};

/// Write side: accumulate versions (strictly increasing source date), then
/// serialize / publish. Deduplicates sections by content hash, delta-encodes
/// against the previous version's sections, and round-trip-verifies every
/// delta before trusting it. Alongside, it merges each version's trie into
/// the temporal arena, noting where every node's rule bits change. Not
/// thread-safe; build once, publish once.
class Builder {
 public:
  Builder() = default;

  /// Add one version from its serialized standalone snapshot bytes (the
  /// canonical form — the 96-byte header is stored verbatim). Validates via
  /// the snapshot loader first; the arena must also be a tree whose labels
  /// are canonical rule labels, as every compiled List is
  /// ("store.bad-record" otherwise). Returns the version index.
  util::Result<std::size_t> add_snapshot(std::span<const std::uint8_t> snapshot_bytes);

  /// serialize(matcher, meta) + add_snapshot.
  util::Result<std::size_t> add(const CompiledMatcher& matcher, const snapshot::Metadata& meta);

  std::size_t version_count() const noexcept { return records_.size(); }
  /// Stats as of the versions added so far (file_bytes = serialized size).
  Stats stats() const;

  /// The complete store file image ("store.empty" when no versions).
  util::Result<std::string> serialize() const;

  /// serialize() + snapshot::write_file_durable (tmp + fsync + rename +
  /// directory fsync). Returns the byte count written.
  util::Result<std::uint64_t> write_file(const std::string& path) const;

 private:
  struct BuiltSegment {
    std::string stored;                          ///< raw bytes or delta program
    std::shared_ptr<const std::string> decoded;  ///< full section bytes
    std::uint64_t hash = 0;                      ///< FNV-1a-64 of `stored`
    std::uint32_t kind = kRawSegment;
    std::uint32_t base = kNoBase;
    std::uint32_t chain_depth = 0;  ///< 0 for raw
  };
  struct Record {
    std::string header;  ///< the verbatim 96-byte standalone header
    snapshot::Metadata meta;
    std::uint32_t seg[4] = {0, 0, 0, 0};
  };
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

  /// Intern one section: content-hash dedup, then delta vs. the previous
  /// version's segment, then raw. `row_width` is the section's record width
  /// in u32 lanes (0 = unstructured bytes, for the pool).
  std::uint32_t intern_section(std::span<const std::uint8_t> bytes, std::size_t row_width,
                               const std::uint32_t* prev_segment);

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

  std::vector<BuiltSegment> segments_;
  std::vector<Record> records_;
  /// content hash of DECODED section bytes -> segment ids with that hash
  /// (collisions resolved by byte compare).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dedup_;
  std::uint64_t standalone_bytes_ = 0;
  std::vector<TemporalNode> temporal_ = std::vector<TemporalNode>(1);
  /// temporal_section()'s bytes; empty until built, cleared by every add.
  mutable std::string temporal_section_;
};

}  // namespace psl::store
