#include "psl/serve/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "psl/psl/detail/match_walk.hpp"

namespace psl::snapshot {

/// Serialization backdoor declared a friend by CompiledMatcher — the only
/// code outside the matcher that sees the raw arena.
struct Access {
  using Node = CompiledMatcher::Node;
  using Child = CompiledMatcher::Child;

  static std::span<const Node> nodes(const CompiledMatcher& m) noexcept { return m.nodes_; }
  static std::span<const std::uint32_t> hashes(const CompiledMatcher& m) noexcept {
    return m.child_hashes_;
  }
  static std::span<const Child> children(const CompiledMatcher& m) noexcept {
    return m.children_;
  }
  static std::string_view pool(const CompiledMatcher& m) noexcept { return m.pool_; }

  /// Build a matcher over an already-validated external arena. `retain`
  /// keeps the buffer alive for owning loads; null for borrowed loads.
  static CompiledMatcher adopt(std::span<const Node> nodes,
                               std::span<const std::uint32_t> hashes,
                               std::span<const Child> children, std::string_view pool,
                               std::shared_ptr<const void> retain) {
    CompiledMatcher m;
    m.nodes_ = nodes;
    m.child_hashes_ = hashes;
    m.children_ = children;
    m.pool_ = pool;
    m.retain_ = std::move(retain);
    return m;
  }

  static constexpr std::uint8_t known_flags() noexcept {
    return CompiledMatcher::kHasNormal | CompiledMatcher::kHasWildcard |
           CompiledMatcher::kHasException;
  }
};

namespace {

using Node = Access::Node;
using Child = Access::Child;

std::uint64_t fnv1a64(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
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

constexpr std::uint64_t align8(std::uint64_t v) noexcept { return (v + 7) & ~std::uint64_t{7}; }

/// Section offsets/sizes implied by the header counts. Counts are capped at
/// 2^32 before this runs, so none of the arithmetic can overflow u64.
struct Layout {
  std::uint64_t nodes_off, nodes_bytes;
  std::uint64_t hashes_off, hashes_bytes;
  std::uint64_t children_off, children_bytes;
  std::uint64_t pool_off, pool_bytes;
  std::uint64_t total;
};

Layout layout_for(std::uint64_t node_count, std::uint64_t child_count,
                  std::uint64_t pool_bytes) noexcept {
  Layout l;
  l.nodes_off = kHeaderBytes;
  l.nodes_bytes = node_count * sizeof(Node);
  l.hashes_off = align8(l.nodes_off + l.nodes_bytes);
  l.hashes_bytes = child_count * sizeof(std::uint32_t);
  l.children_off = align8(l.hashes_off + l.hashes_bytes);
  l.children_bytes = child_count * sizeof(Child);
  l.pool_off = align8(l.children_off + l.children_bytes);
  l.pool_bytes = pool_bytes;
  l.total = l.pool_off + l.pool_bytes;
  return l;
}

util::Error err(const char* code, std::string message) {
  return util::make_error(code, std::move(message));
}

}  // namespace

util::Result<HeaderView> parse_header(std::span<const std::uint8_t> header) {
  if (header.size() < kHeaderBytes) {
    return err("snapshot.truncated",
               "buffer is " + std::to_string(header.size()) + " bytes; header needs " +
                   std::to_string(kHeaderBytes));
  }
  const std::uint8_t* const p = header.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return err("snapshot.bad-magic", "magic bytes are not PSLSNAP1");
  }
  const std::uint32_t version = get_u32(p + 8);
  if (version != kFormatVersion) {
    return err("snapshot.bad-version", "format version " + std::to_string(version) +
                                           " unsupported (expect " +
                                           std::to_string(kFormatVersion) + ")");
  }
  if (get_u32(p + 12) != kHeaderBytes) {
    return err("snapshot.bad-header", "header size field is not 96");
  }

  HeaderView h;
  h.node_count = get_u64(p + 16);
  h.child_count = get_u64(p + 24);
  const std::uint64_t pool_bytes = get_u64(p + 32);

  h.meta.rule_count = get_u64(p + 40);
  const auto date_raw = static_cast<std::int64_t>(get_u64(p + 48));
  if (date_raw < std::numeric_limits<std::int32_t>::min() ||
      date_raw > std::numeric_limits<std::int32_t>::max()) {
    return err("snapshot.bad-header", "source date out of range");
  }
  h.meta.source_date = util::Date(static_cast<std::int32_t>(date_raw));

  constexpr std::uint64_t kMaxIndex = 0xFFFFFFFFull;
  if (h.node_count == 0 || h.node_count > kMaxIndex || h.child_count > kMaxIndex ||
      pool_bytes > kMaxIndex) {
    return err("snapshot.bad-counts", "counts empty or overflow 32-bit arena indices");
  }

  const Layout l = layout_for(h.node_count, h.child_count, pool_bytes);
  h.nodes_off = l.nodes_off;
  h.nodes_bytes = l.nodes_bytes;
  h.hashes_off = l.hashes_off;
  h.hashes_bytes = l.hashes_bytes;
  h.children_off = l.children_off;
  h.children_bytes = l.children_bytes;
  h.pool_off = l.pool_off;
  h.pool_bytes = l.pool_bytes;
  h.total_bytes = l.total;
  h.nodes_sum = get_u64(p + 56);
  h.hashes_sum = get_u64(p + 64);
  h.children_sum = get_u64(p + 72);
  h.pool_sum = get_u64(p + 80);
  h.header_sum = get_u64(p + 88);
  return h;
}

namespace {

/// The validation pipeline over a 96-byte header and the four sections as
/// separate spans (structure first, checksums last). Each span must be
/// exactly the size the header declares; nodes/hashes/children must be
/// 8-byte aligned. `retain` keeps the buffer alive for the matcher.
util::Result<Snapshot> load_view_sections(std::span<const std::uint8_t> header,
                                          std::span<const std::uint8_t> nodes_bytes,
                                          std::span<const std::uint8_t> hashes_bytes,
                                          std::span<const std::uint8_t> children_bytes,
                                          std::span<const std::uint8_t> pool_bytes,
                                          std::shared_ptr<const void> retain) {
  auto parsed = parse_header(header);
  if (!parsed.ok()) return parsed.error();
  const HeaderView& h = *parsed;

  const auto check_section = [](std::string_view name, std::span<const std::uint8_t> got,
                                std::uint64_t want, bool need_alignment)
      -> util::Result<bool> {
    if (got.size() < want) {
      return err("snapshot.truncated", std::string(name) + " section is " +
                                           std::to_string(got.size()) + " bytes; header declares " +
                                           std::to_string(want));
    }
    if (got.size() > want) {
      return err("snapshot.size-mismatch", std::string(name) + " section is " +
                                               std::to_string(got.size()) +
                                               " bytes; header declares " + std::to_string(want));
    }
    if (need_alignment &&
        reinterpret_cast<std::uintptr_t>(got.data()) % kBufferAlignment != 0) {
      return err("snapshot.misaligned",
                 std::string(name) + " section buffer must be 8-byte aligned");
    }
    return true;
  };
  if (auto ok = check_section("node", nodes_bytes, h.nodes_bytes, true); !ok.ok()) {
    return ok.error();
  }
  if (auto ok = check_section("hash", hashes_bytes, h.hashes_bytes, true); !ok.ok()) {
    return ok.error();
  }
  if (auto ok = check_section("child", children_bytes, h.children_bytes, true); !ok.ok()) {
    return ok.error();
  }
  if (auto ok = check_section("pool", pool_bytes, h.pool_bytes, false); !ok.ok()) {
    return ok.error();
  }

  const std::uint64_t node_count = h.node_count;
  const std::uint64_t child_count = h.child_count;
  const std::span<const Node> nodes(reinterpret_cast<const Node*>(nodes_bytes.data()),
                                    static_cast<std::size_t>(node_count));
  const std::span<const std::uint32_t> hashes(
      reinterpret_cast<const std::uint32_t*>(hashes_bytes.data()),
      static_cast<std::size_t>(child_count));
  const std::span<const Child> children(reinterpret_cast<const Child*>(children_bytes.data()),
                                        static_cast<std::size_t>(child_count));
  const std::string_view pool(reinterpret_cast<const char*>(pool_bytes.data()),
                              static_cast<std::size_t>(h.pool_bytes));

  // Nodes: child ranges must partition [0, child_count) in node order (the
  // compiler emits them that way, and it implies every range is in bounds),
  // flag bytes must hold only known bits, and padding must be zero.
  const std::uint8_t known = Access::known_flags();
  std::uint64_t expected_begin = 0;
  for (std::uint64_t i = 0; i < node_count; ++i) {
    const Node& n = nodes[i];
    if (n.children_begin != expected_begin || n.children_end < n.children_begin ||
        n.children_end > child_count) {
      return err("snapshot.bad-node",
                 "child range broken at node " + std::to_string(i));
    }
    expected_begin = n.children_end;
    if ((n.flags & ~known) != 0 || (n.sections & static_cast<std::uint8_t>(~n.flags)) != 0 ||
        n.reserved != 0) {
      return err("snapshot.bad-node",
                 "unknown flag bits or nonzero padding at node " + std::to_string(i));
    }
  }
  if (expected_begin != child_count) {
    return err("snapshot.bad-node", "child ranges do not cover the child array");
  }

  // Children: labels in the pool and non-empty, stored hash actually the
  // label's hash (the binary search compares hashes first), edges to real
  // non-root nodes. Cycles among non-root nodes cannot hang a lookup — the
  // shared walk is bounded at kMaxMatchDepth — so reachability is not
  // checked here.
  for (std::uint64_t i = 0; i < child_count; ++i) {
    const Child& c = children[i];
    if (c.label_len == 0 || c.label_offset > h.pool_bytes ||
        c.label_len > h.pool_bytes - c.label_offset) {
      return err("snapshot.bad-child", "label out of pool bounds at child " + std::to_string(i));
    }
    if (c.node == 0 || c.node >= node_count) {
      return err("snapshot.bad-child", "edge out of range at child " + std::to_string(i));
    }
    const std::string_view label(pool.data() + c.label_offset, c.label_len);
    if (hashes[i] != detail::fnv1a_reverse(label)) {
      return err("snapshot.bad-child", "stored hash != label hash at child " + std::to_string(i));
    }
  }

  // Each range sorted by (hash, label), strictly — duplicates would make
  // lookups ambiguous. Ranges partition the array (checked above), so one
  // linear pass with per-node resets covers every range.
  for (std::uint64_t n = 0; n < node_count; ++n) {
    for (std::uint64_t i = nodes[n].children_begin + 1; i < nodes[n].children_end; ++i) {
      if (hashes[i] < hashes[i - 1]) {
        return err("snapshot.bad-order", "hashes out of order at child " + std::to_string(i));
      }
      if (hashes[i] == hashes[i - 1]) {
        const Child& a = children[i - 1];
        const Child& b = children[i];
        const std::string_view la(pool.data() + a.label_offset, a.label_len);
        const std::string_view lb(pool.data() + b.label_offset, b.label_len);
        if (!(la < lb)) {
          return err("snapshot.bad-order",
                     "labels out of order or duplicate at child " + std::to_string(i));
        }
      }
    }
  }

  if (fnv1a64(header.data(), 88) != h.header_sum) {
    return err("snapshot.checksum", "header checksum mismatch");
  }
  if (fnv1a64(nodes.data(), nodes.size_bytes()) != h.nodes_sum) {
    return err("snapshot.checksum", "node section checksum mismatch");
  }
  if (fnv1a64(hashes.data(), hashes.size_bytes()) != h.hashes_sum) {
    return err("snapshot.checksum", "hash section checksum mismatch");
  }
  if (fnv1a64(children.data(), children.size_bytes()) != h.children_sum) {
    return err("snapshot.checksum", "child section checksum mismatch");
  }
  if (fnv1a64(pool.data(), pool.size()) != h.pool_sum) {
    return err("snapshot.checksum", "label pool checksum mismatch");
  }

  return Snapshot{Access::adopt(nodes, hashes, children, pool, std::move(retain)), h.meta};
}

/// The contiguous-buffer pipeline: header + layout/padding checks over one
/// 8-byte-aligned buffer, then the shared scattered-section validator over
/// exact subspans. Checksums still run LAST, deliberately: a fuzzer that
/// only flips payload bytes would otherwise never get past the checksum
/// gate into the structural checks, which are the ones the match path's
/// safety actually rests on.
util::Result<Snapshot> load_validated(std::span<const std::uint8_t> bytes,
                                      std::shared_ptr<const void> retain) {
  auto parsed = parse_header(bytes);
  if (!parsed.ok()) return parsed.error();
  const HeaderView& h = *parsed;

  if (bytes.size() < h.total_bytes) {
    return err("snapshot.truncated", "buffer is " + std::to_string(bytes.size()) +
                                         " bytes; header declares " +
                                         std::to_string(h.total_bytes));
  }
  if (bytes.size() > h.total_bytes) {
    return err("snapshot.size-mismatch", std::to_string(bytes.size() - h.total_bytes) +
                                             " trailing bytes past the declared layout");
  }

  // Inter-section padding must be zero. Together with the checksums this
  // makes the format canonical: every byte is either validated structure or
  // checksummed payload, so any single-byte corruption is detectable.
  const std::uint8_t* const p = bytes.data();
  const auto padding_zero = [p](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t i = from; i < to; ++i) {
      if (p[i] != 0) return false;
    }
    return true;
  };
  if (!padding_zero(h.nodes_off + h.nodes_bytes, h.hashes_off) ||
      !padding_zero(h.hashes_off + h.hashes_bytes, h.children_off) ||
      !padding_zero(h.children_off + h.children_bytes, h.pool_off)) {
    return err("snapshot.bad-padding", "nonzero inter-section padding");
  }

  return load_view_sections(
      bytes.first(kHeaderBytes),
      bytes.subspan(static_cast<std::size_t>(h.nodes_off),
                    static_cast<std::size_t>(h.nodes_bytes)),
      bytes.subspan(static_cast<std::size_t>(h.hashes_off),
                    static_cast<std::size_t>(h.hashes_bytes)),
      bytes.subspan(static_cast<std::size_t>(h.children_off),
                    static_cast<std::size_t>(h.children_bytes)),
      bytes.subspan(static_cast<std::size_t>(h.pool_off),
                    static_cast<std::size_t>(h.pool_bytes)),
      std::move(retain));
}

}  // namespace

std::string serialize(const CompiledMatcher& matcher, const Metadata& meta) {
  const auto nodes = Access::nodes(matcher);
  const auto hashes = Access::hashes(matcher);
  const auto children = Access::children(matcher);
  const std::string_view pool = Access::pool(matcher);

  const Layout l = layout_for(nodes.size(), children.size(), pool.size());

  std::string out;
  out.reserve(static_cast<std::size_t>(l.total));
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(kHeaderBytes));
  put_u64(out, nodes.size());
  put_u64(out, children.size());
  put_u64(out, pool.size());
  put_u64(out, meta.rule_count);
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(meta.source_date.days_since_epoch())));
  put_u64(out, fnv1a64(nodes.data(), nodes.size_bytes()));
  put_u64(out, fnv1a64(hashes.data(), hashes.size_bytes()));
  put_u64(out, fnv1a64(children.data(), children.size_bytes()));
  put_u64(out, fnv1a64(pool.data(), pool.size()));
  put_u64(out, fnv1a64(out.data(), 88));  // header checksum over bytes [0, 88)

  out.append(reinterpret_cast<const char*>(nodes.data()), nodes.size_bytes());
  out.resize(static_cast<std::size_t>(l.hashes_off), '\0');
  out.append(reinterpret_cast<const char*>(hashes.data()), hashes.size_bytes());
  out.resize(static_cast<std::size_t>(l.children_off), '\0');
  out.append(reinterpret_cast<const char*>(children.data()), children.size_bytes());
  out.resize(static_cast<std::size_t>(l.pool_off), '\0');
  out.append(pool.data(), pool.size());
  return out;
}

util::Result<Snapshot> with_rules(const Snapshot& base,
                                  std::span<const CompiledMatcher::NodeRules> rules,
                                  const Metadata& meta, std::shared_ptr<const void> retain) {
  const std::span<const Node> shape = Access::nodes(base.matcher);
  if (rules.size() != shape.size()) {
    return err("snapshot.bad-node", std::to_string(rules.size()) + " rule sets for " +
                                        std::to_string(shape.size()) + " nodes");
  }
  struct Owned {
    std::shared_ptr<const void> base;
    std::vector<Node> nodes;
  };
  auto owned = std::make_shared<Owned>();
  owned->base = std::move(retain);
  owned->nodes.assign(shape.begin(), shape.end());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const CompiledMatcher::NodeRules r = rules[i];
    if ((r.flags & ~Access::known_flags()) != 0 ||
        (r.sections & static_cast<std::uint8_t>(~r.flags)) != 0) {
      return err("snapshot.bad-node", "unknown flag bits at node " + std::to_string(i));
    }
    owned->nodes[i].flags = r.flags;
    owned->nodes[i].sections = r.sections;
  }
  const std::span<const Node> nodes(owned->nodes);
  return Snapshot{Access::adopt(nodes, Access::hashes(base.matcher),
                                Access::children(base.matcher), Access::pool(base.matcher),
                                std::move(owned)),
                  meta};
}

util::Result<Snapshot> load_view(std::span<const std::uint8_t> bytes) {
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % kBufferAlignment != 0) {
    return err("snapshot.misaligned", "borrowed buffer must be 8-byte aligned");
  }
  return load_validated(bytes, nullptr);
}

util::Result<Snapshot> load_copy(std::span<const std::uint8_t> bytes) {
  // A u64 vector gives the 8-byte alignment load_validated's casts need.
  auto buffer = std::make_shared<std::vector<std::uint64_t>>((bytes.size() + 7) / 8);
  if (!bytes.empty()) std::memcpy(buffer->data(), bytes.data(), bytes.size());
  const std::span<const std::uint8_t> aligned(
      reinterpret_cast<const std::uint8_t*>(buffer->data()), bytes.size());
  return load_validated(aligned, std::move(buffer));
}

namespace {

// Test injection for the durability paths (see the header). Mirrors the
// countdown style of pslh_test_fail_next_allocs in the C API.
std::atomic<int> g_fail_fsyncs{0};
void (*g_load_file_hook)(const char* path) = nullptr;

/// fsync(fd), honoring the test countdown. Returns false (with errno set)
/// on failure.
bool fsync_ok(int fd) {
  int pending = g_fail_fsyncs.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (g_fail_fsyncs.compare_exchange_weak(pending, pending - 1,
                                            std::memory_order_relaxed)) {
      errno = EIO;
      return false;
    }
  }
  return ::fsync(fd) == 0;
}

}  // namespace

void test_fail_next_fsyncs(int count) {
  g_fail_fsyncs.store(count, std::memory_order_relaxed);
}

void test_set_load_file_hook(void (*hook)(const char* path)) { g_load_file_hook = hook; }

util::Result<FileBytes> read_file(const std::string& path) {
  // Plain POSIX I/O: an iostream here would fault in libstdc++'s locale
  // machinery, which costs a serving process more resident memory than a
  // real list's whole snapshot.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return err("snapshot.io", "cannot open " + path + " (" + std::strerror(errno) + ")");
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return err("snapshot.io", "cannot size " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (g_load_file_hook != nullptr) g_load_file_hook(path.c_str());
  // u64 words give the 8-byte alignment the in-place section spans need;
  // read() fills them, so they are not zeroed first.
  auto buffer = std::make_shared_for_overwrite<std::uint64_t[]>((size + 7) / 8);
  auto* const out = reinterpret_cast<std::uint8_t*>(buffer.get());
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  // A concurrent writer that APPENDS between the size probe and the read
  // would otherwise pass validation on the prefix while the file says
  // something else (a truncation already fails as a short read). Anyone
  // publishing through write_file_durable never hits this; reject the racy
  // writer instead of guessing.
  const bool sized = ::fstat(fd, &st) == 0;
  ::close(fd);
  if (got != size) return err("snapshot.io", "short read from " + path);
  if (!sized) return err("snapshot.io", "cannot re-stat " + path);
  if (static_cast<std::size_t>(st.st_size) != size) {
    return err("snapshot.io", "file size changed while reading " + path + " (" +
                                  std::to_string(size) + " -> " +
                                  std::to_string(static_cast<long long>(st.st_size)) +
                                  " bytes); concurrent writer?");
  }
  return FileBytes{std::move(buffer), {out, size}};
}

util::Result<Snapshot> load_file(const std::string& path) {
  auto file = read_file(path);
  if (!file.ok()) return file.error();
  return load_validated(file->bytes, std::move(file->owner));
}

util::Result<std::uint64_t> write_file_durable(const std::string& path,
                                               std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const std::string& what) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return err("snapshot.io", what + " (" + std::strerror(saved) + ")");
  };

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return fail("cannot create " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail("cannot write " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // The tmp file's bytes must be on disk BEFORE the rename: otherwise a
  // crash after the rename commits can leave the final path pointing at a
  // file whose contents were never flushed — exactly the torn snapshot this
  // helper exists to rule out.
  if (!fsync_ok(fd)) {
    ::close(fd);
    return fail("cannot fsync " + tmp);
  }
  if (::close(fd) != 0) return fail("cannot close " + tmp);

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename " + tmp + " -> " + path);
  }

  // And the rename itself must reach disk: fsync the directory so the new
  // directory entry is durable. Past this point the tmp no longer exists,
  // so failures just report — the file at `path` is valid either way, but
  // the caller must treat a non-ok publish as not-yet-durable.
  std::string dir = path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return err("snapshot.io",
               "cannot open directory " + dir + " (" + std::strerror(errno) + ")");
  }
  if (!fsync_ok(dfd)) {
    const int saved = errno;
    ::close(dfd);
    return err("snapshot.io",
               "cannot fsync directory " + dir + " (" + std::strerror(saved) + ")");
  }
  ::close(dfd);
  return static_cast<std::uint64_t>(bytes.size());
}

util::Result<std::uint64_t> write_file(const std::string& path, const CompiledMatcher& matcher,
                                       const Metadata& meta) {
  const std::string bytes = serialize(matcher, meta);
  return write_file_durable(
      path, std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

}  // namespace psl::snapshot
