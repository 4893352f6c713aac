// psl::snapshot — versioned binary serialization of the CompiledMatcher
// arena (the serving engine's wire format, layer 1 of psl::serve).
//
// The arena's flat layout (node array + hash array + child records + label
// pool) is serialized verbatim behind a fixed 96-byte header:
//
//   offset  size  field
//        0     8  magic "PSLSNAP1"
//        8     4  format version (currently 1)
//       12     4  header size in bytes (96)
//       16     8  node count
//       24     8  child count
//       32     8  label-pool bytes
//       40     8  source-list rule count        (metadata)
//       48     8  source-list date, days since  (metadata, int64, signed)
//                 1970-01-01
//       56     8  FNV-1a-64 checksum: node section
//       64     8  FNV-1a-64 checksum: hash section
//       72     8  FNV-1a-64 checksum: child section
//       80     8  FNV-1a-64 checksum: label pool
//       88     8  FNV-1a-64 checksum over header bytes [0, 88)
//
// All integers are little-endian. Sections follow the header in order —
// nodes, hashes, children, pool — each starting on an 8-byte boundary
// (zero padding between sections); the file ends exactly at the end of the
// pool. Serialization is deterministic: compiling the same List always
// yields byte-identical snapshot files.
//
// Loading NEVER trusts the bytes. Before a single match runs, the loader
// proves every invariant the match path relies on:
//
//   * counts/offsets describe exactly the buffer's size (no truncation,
//     no trailing garbage, no 32-bit index overflow);
//   * every node's child range is within the child array;
//   * every child's label is within the pool, non-empty, and its stored
//     hash equals fnv1a_reverse(label);
//   * every child points at a real, non-root node;
//   * each node's child range is sorted by (hash, label) with no duplicate
//     labels — the binary search's contract;
//   * flag bytes contain only known bits and padding is zero;
//   * all five checksums match.
//
// A buffer that fails any check yields a util::Result error (codes below) —
// never UB, never a partially built matcher. Malicious structural cycles
// (child edges pointing back up) cannot hang a lookup either: the shared
// walk is bounded at kMaxMatchDepth labels. The fuzz harness
// (tests/fuzz/fuzz_load_snapshot.cpp) hammers this contract with mutated
// snapshot bytes under ASan/UBSan.
//
// Two loading modes:
//   * load_copy / load_file copy the bytes into an aligned buffer owned by
//     the returned matcher (shared_ptr-retained, so copies stay cheap);
//   * load_view borrows the caller's buffer zero-copy — the caller must
//     keep it alive and 8-byte aligned (static blobs, arenas).
// Files are always read into memory the process owns, never mapped: once
// loaded, nothing a writer does to the file can change what is served.
//
// A derived snapshot (with_rules) keeps a loaded arena's trie and swaps in
// other rule bits: psl::store answers one list version from the union arena
// of every version's rules this way, without re-validating the shared shape.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "psl/psl/compiled_matcher.hpp"
#include "psl/util/date.hpp"
#include "psl/util/result.hpp"

namespace psl::snapshot {

inline constexpr char kMagic[8] = {'P', 'S', 'L', 'S', 'N', 'A', 'P', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 96;
/// load_view() requires the borrowed buffer to start on this alignment so
/// the in-place section spans are themselves aligned.
inline constexpr std::size_t kBufferAlignment = 8;

// Error codes returned by the loaders ("snapshot." prefix, stable):
//   snapshot.misaligned   borrowed buffer not 8-byte aligned
//   snapshot.truncated    shorter than the header / the declared sections
//   snapshot.bad-magic    magic bytes are not "PSLSNAP1"
//   snapshot.bad-version  format version unsupported
//   snapshot.bad-header   header size field wrong
//   snapshot.bad-counts   counts overflow 32-bit indices or are empty
//   snapshot.size-mismatch  buffer size != header's declared layout
//   snapshot.bad-node     child range out of bounds / nonzero padding /
//                         unknown flag bits
//   snapshot.bad-child    label out of pool bounds, empty, wrong hash, or
//                         edge to node 0 / out of range
//   snapshot.bad-order    child range not sorted by (hash, label) or
//                         duplicate label
//   snapshot.bad-padding  nonzero bytes in the inter-section padding
//   snapshot.checksum     a section or header checksum mismatch
//   snapshot.io           file could not be read / written

/// Provenance carried alongside the arena so a serving process can report
/// which list version it answers for without re-parsing anything.
struct Metadata {
  util::Date source_date{0};     ///< date of the source list version
  std::uint64_t rule_count = 0;  ///< rules in the source list
};

/// A validated, ready-to-query snapshot: the matcher plus its provenance.
struct Snapshot {
  CompiledMatcher matcher;
  Metadata meta;
};

/// The decoded 96-byte header: metadata, per-section byte layout (offsets
/// are into the full serialized buffer; sizes stand alone), and the five
/// stored checksums. parse_header() validates every field invariant but
/// deliberately does NOT verify the checksums — the loaders run structural
/// checks first and checksums last.
struct HeaderView {
  Metadata meta;
  std::uint64_t node_count = 0;
  std::uint64_t child_count = 0;
  std::uint64_t nodes_off = 0, nodes_bytes = 0;
  std::uint64_t hashes_off = 0, hashes_bytes = 0;
  std::uint64_t children_off = 0, children_bytes = 0;
  std::uint64_t pool_off = 0, pool_bytes = 0;
  std::uint64_t total_bytes = 0;  ///< exact size of the full serialized form
  std::uint64_t nodes_sum = 0, hashes_sum = 0, children_sum = 0, pool_sum = 0;
  std::uint64_t header_sum = 0;  ///< stored checksum over header bytes [0, 88)
};

/// Decode and field-validate the first kHeaderBytes of `header` (extra
/// bytes are ignored, so the full buffer works too). Checksums are recorded,
/// not verified — see HeaderView.
util::Result<HeaderView> parse_header(std::span<const std::uint8_t> header);

/// Serialize `matcher`'s arena. Deterministic; the result round-trips
/// through any loader bit-identically.
std::string serialize(const CompiledMatcher& matcher, const Metadata& meta);

/// Validate and adopt `bytes` zero-copy: the matcher's arena spans point
/// into `bytes`, which the caller must keep alive (and 8-byte aligned) for
/// the matcher's whole lifetime.
util::Result<Snapshot> load_view(std::span<const std::uint8_t> bytes);

/// Validate `bytes` and copy them into an internal aligned buffer owned
/// (and shared across copies) by the returned matcher. No alignment or
/// lifetime demands on `bytes`.
util::Result<Snapshot> load_copy(std::span<const std::uint8_t> bytes);

/// `base`'s trie with other rule bits: node n carries rules[n]; the child
/// ranges, hashes, children and label pool are `base`'s, shared zero-copy.
/// The shape was validated when `base` was loaded, so only the new bits are
/// checked: known flags, sections a subset of flags ("snapshot.bad-node"
/// otherwise, and when rules.size() is not base's node count). The result
/// holds `retain`, which must keep alive the buffer `base` points into.
util::Result<Snapshot> with_rules(const Snapshot& base,
                                  std::span<const CompiledMatcher::NodeRules> rules,
                                  const Metadata& meta, std::shared_ptr<const void> retain);

/// The whole of one file, read into an 8-byte-aligned buffer that `owner`
/// keeps alive; `bytes` points into it.
struct FileBytes {
  std::shared_ptr<const void> owner;
  std::span<const std::uint8_t> bytes;
};

/// Read `path` into memory the caller owns (the loaders below and
/// store::StoreView::open both read through here). A file whose size
/// changes while being read (a writer not using the durable tmp+rename
/// publish below) is rejected with snapshot.io rather than silently
/// truncated at the size observed first.
util::Result<FileBytes> read_file(const std::string& path);

/// read_file `path` and validate its contents in place (no second copy).
/// The result never reads the file again: truncating or rewriting `path`
/// in place afterwards changes nothing that is served, and the next
/// load_file of the damaged file fails validation (keep-last-good for
/// Engine::reload_file). Publishing by rename is still the right way to
/// replace a served file: a reload that races an in-place write is
/// rejected, not half-read.
util::Result<Snapshot> load_file(const std::string& path);

/// serialize() to `path` via write_file_durable below. Returns the byte
/// count written.
util::Result<std::uint64_t> write_file(const std::string& path, const CompiledMatcher& matcher,
                                       const Metadata& meta);

/// Crash-durable publish of an arbitrary blob: write `path`.tmp, fsync it,
/// rename over `path`, fsync the containing directory. A crash at any point
/// leaves either the old file or the new one at `path` — never a torn
/// mixture — and a non-ok return ("snapshot.io") means the publish must be
/// presumed NOT durable (the tmp file is unlinked on the failure paths that
/// precede the rename). Shared by snapshot::write_file and store::Builder.
util::Result<std::uint64_t> write_file_durable(const std::string& path,
                                               std::span<const std::uint8_t> bytes);

/// TESTING ONLY: make the next `count` fsync calls inside write_file_durable
/// fail with EIO (the injection point for crash-durability regression
/// tests, mirroring pslh_test_fail_next_allocs in the C API).
void test_fail_next_fsyncs(int count);

/// TESTING ONLY: hook invoked by read_file after sizing the file and before
/// reading it — the window where a concurrent writer can grow the file.
/// Pass nullptr to clear.
void test_set_load_file_hook(void (*hook)(const char* path));

}  // namespace psl::snapshot
