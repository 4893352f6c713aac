// psl::store implementation: the delta codec, the Builder (write side), the
// temporal arena, and the StoreView (mmap read side). See
// include/psl/store/store.hpp for the file format and the dedup strategy
// rationale.

#include "psl/store/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "psl/psl/list.hpp"

namespace psl::store {

namespace {

util::Error err(std::string code, std::string message) {
  return util::make_error(std::move(code), std::move(message));
}

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

std::uint64_t align8(std::uint64_t v) noexcept { return (v + 7) & ~std::uint64_t{7}; }

// ---------------------------------------------------------------------------
// Delta codec: a tiny byte-oriented op VM.
//
//   COPY n            copy n bytes from the base cursor
//   INSERT n <bytes>  emit n literal bytes
//   SKIP n            advance the base cursor by n bytes
//   ADDROW w n <d_0..d_{w-1}>
//                     n rows of w u32 lanes: out_lane = base_lane + d_lane
//                     (mod 2^32), base cursor advances with the rows. The
//                     per-lane deltas are zigzag varints, so the dominant
//                     churn pattern — "+k to the same lanes of every
//                     following row" — costs a handful of bytes per run.
//   DIFFROW w n <d_00..d_0{w-1} .. d_{n-1}{w-1}>
//                     like ADDROW but with an independent per-lane delta for
//                     every row (row-major zigzag varints). This carries the
//                     "aligned but jittery" regions — rows whose lanes shift
//                     by small, row-varying amounts — at ~1 byte per lane
//                     instead of a fresh ADDROW header per row.
//
// All counts are LEB128 varints. The decoder bounds-checks every op and
// requires the program to end exactly at the declared decoded size; the
// Builder additionally round-trip-verifies every program it emits.
// ---------------------------------------------------------------------------

enum : std::uint8_t {
  kOpCopy = 1,
  kOpInsert = 2,
  kOpSkip = 3,
  kOpAddRow = 4,
  kOpDiffRow = 5
};

constexpr std::size_t kMaxRowWidth = 16;   // lanes per ADDROW row
constexpr std::size_t kMinDeltaRun = 4;    // ADDROW runs shorter than this try a resync first
constexpr std::size_t kResyncWindow = 64;  // rows searched for realignment
constexpr std::size_t kResyncConfirm = 8;  // equal rows required to accept a resync

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool get_varint(std::span<const std::uint8_t> buf, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64 && pos < buf.size(); shift += 7) {
    const std::uint8_t b = buf[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Run `ops` against `base`, writing exactly `out.size()` bytes into `out`.
util::Result<std::uint64_t> decode_delta(std::span<const std::uint8_t> ops,
                                         std::span<const std::uint8_t> base,
                                         std::span<std::uint8_t> out) {
  std::size_t pos = 0;  // program cursor
  std::size_t bc = 0;   // base cursor
  std::size_t wc = 0;   // write cursor
  const auto bad = [](const char* what) { return err("store.bad-delta", what); };
  while (pos < ops.size()) {
    const std::uint8_t op = ops[pos++];
    std::uint64_t n = 0;
    switch (op) {
      case kOpCopy:
        if (!get_varint(ops, pos, n)) return bad("truncated COPY count");
        if (n > base.size() - bc || n > out.size() - wc) return bad("COPY out of bounds");
        std::memcpy(out.data() + wc, base.data() + bc, static_cast<std::size_t>(n));
        bc += static_cast<std::size_t>(n);
        wc += static_cast<std::size_t>(n);
        break;
      case kOpInsert:
        if (!get_varint(ops, pos, n)) return bad("truncated INSERT count");
        if (n > ops.size() - pos || n > out.size() - wc) return bad("INSERT out of bounds");
        std::memcpy(out.data() + wc, ops.data() + pos, static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n);
        wc += static_cast<std::size_t>(n);
        break;
      case kOpSkip:
        if (!get_varint(ops, pos, n)) return bad("truncated SKIP count");
        if (n > base.size() - bc) return bad("SKIP out of bounds");
        bc += static_cast<std::size_t>(n);
        break;
      case kOpAddRow: {
        std::uint64_t w = 0;
        if (!get_varint(ops, pos, w) || !get_varint(ops, pos, n)) {
          return bad("truncated ADDROW header");
        }
        if (w < 1 || w > kMaxRowWidth || n < 1) return bad("ADDROW shape invalid");
        if (bc % 4 != 0 || wc % 4 != 0) return bad("ADDROW cursor misaligned");
        const std::uint64_t row_bytes = w * 4;
        if (n > (base.size() - bc) / row_bytes || n > (out.size() - wc) / row_bytes) {
          return bad("ADDROW out of bounds");
        }
        std::int64_t d[kMaxRowWidth];
        for (std::uint64_t k = 0; k < w; ++k) {
          std::uint64_t zz = 0;
          if (!get_varint(ops, pos, zz)) return bad("truncated ADDROW delta");
          d[k] = unzigzag(zz);
        }
        for (std::uint64_t r = 0; r < n; ++r) {
          for (std::uint64_t k = 0; k < w; ++k) {
            const std::uint32_t bv = get_u32(base.data() + bc);
            const std::uint32_t nv =
                static_cast<std::uint32_t>(static_cast<std::uint64_t>(bv) +
                                           static_cast<std::uint64_t>(d[k]));
            out[wc + 0] = static_cast<std::uint8_t>(nv & 0xFF);
            out[wc + 1] = static_cast<std::uint8_t>((nv >> 8) & 0xFF);
            out[wc + 2] = static_cast<std::uint8_t>((nv >> 16) & 0xFF);
            out[wc + 3] = static_cast<std::uint8_t>((nv >> 24) & 0xFF);
            bc += 4;
            wc += 4;
          }
        }
        break;
      }
      case kOpDiffRow: {
        std::uint64_t w = 0;
        if (!get_varint(ops, pos, w) || !get_varint(ops, pos, n)) {
          return bad("truncated DIFFROW header");
        }
        if (w < 1 || w > kMaxRowWidth || n < 1) return bad("DIFFROW shape invalid");
        if (bc % 4 != 0 || wc % 4 != 0) return bad("DIFFROW cursor misaligned");
        const std::uint64_t row_bytes = w * 4;
        if (n > (base.size() - bc) / row_bytes || n > (out.size() - wc) / row_bytes) {
          return bad("DIFFROW out of bounds");
        }
        for (std::uint64_t r = 0; r < n; ++r) {
          for (std::uint64_t k = 0; k < w; ++k) {
            std::uint64_t zz = 0;
            if (!get_varint(ops, pos, zz)) return bad("truncated DIFFROW delta");
            const std::uint32_t bv = get_u32(base.data() + bc);
            const std::uint32_t nv =
                static_cast<std::uint32_t>(static_cast<std::uint64_t>(bv) +
                                           static_cast<std::uint64_t>(unzigzag(zz)));
            out[wc + 0] = static_cast<std::uint8_t>(nv & 0xFF);
            out[wc + 1] = static_cast<std::uint8_t>((nv >> 8) & 0xFF);
            out[wc + 2] = static_cast<std::uint8_t>((nv >> 16) & 0xFF);
            out[wc + 3] = static_cast<std::uint8_t>((nv >> 24) & 0xFF);
            bc += 4;
            wc += 4;
          }
        }
        break;
      }
      default:
        return bad("unknown opcode");
    }
  }
  if (wc != out.size()) return bad("program does not produce the declared size");
  return static_cast<std::uint64_t>(wc);
}

/// Byte-mode encoder for the label pool. Labels are interned append-mostly,
/// but one new rule can scatter insertions across the pool, so a single
/// prefix/suffix splice degenerates into an INSERT spanning almost the whole
/// section. Instead: index every 8-byte shingle of the base, then walk the
/// new bytes greedily — extend the aligned match into COPY, or jump forward
/// (SKIP is forward-only in the VM) to the nearest indexed match and splice;
/// unmatched bytes pool into one pending INSERT.
constexpr std::size_t kShingle = 8;        // bytes hashed per index entry
constexpr std::size_t kMinCopyRun = 4;     // aligned runs shorter than this stay literal
constexpr std::size_t kMinJumpMatch = 12;  // jump matches must repay SKIP+COPY overhead

std::string encode_bytes_delta(std::span<const std::uint8_t> base,
                               std::span<const std::uint8_t> neu) {
  // Shingle index: open-addressed hash -> ascending base positions.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
  if (base.size() >= kShingle) {
    index.reserve(base.size());
    for (std::size_t pos = 0; pos + kShingle <= base.size(); ++pos) {
      index[get_u64(base.data() + pos)].push_back(static_cast<std::uint32_t>(pos));
    }
  }
  const auto match_len = [&](std::size_t ni, std::size_t bj) {
    std::size_t m = 0;
    const std::size_t cap = std::min(neu.size() - ni, base.size() - bj);
    while (m < cap && neu[ni + m] == base[bj + m]) ++m;
    return m;
  };

  std::string ops;
  std::string pending;  // literal bytes awaiting one INSERT
  const auto flush = [&] {
    if (pending.empty()) return;
    ops.push_back(static_cast<char>(kOpInsert));
    put_varint(ops, pending.size());
    ops.append(pending);
    pending.clear();
  };

  std::size_t i = 0, j = 0;  // new / base cursors
  while (i < neu.size()) {
    // Aligned run first: the common case between churn sites.
    if (j < base.size() && base[j] == neu[i]) {
      const std::size_t run = match_len(i, j);
      if (run >= kMinCopyRun) {
        flush();
        ops.push_back(static_cast<char>(kOpCopy));
        put_varint(ops, run);
        i += run;
        j += run;
        continue;
      }
    }
    // Jump: nearest indexed occurrence at or past the base cursor.
    if (i + kShingle <= neu.size()) {
      const auto it = index.find(get_u64(neu.data() + i));
      if (it != index.end()) {
        const auto& positions = it->second;
        const auto lo = std::lower_bound(positions.begin(), positions.end(),
                                         static_cast<std::uint32_t>(j));
        if (lo != positions.end()) {
          const std::size_t bj = *lo;
          const std::size_t run = match_len(i, bj);
          if (run >= kMinJumpMatch) {
            flush();
            if (bj > j) {
              ops.push_back(static_cast<char>(kOpSkip));
              put_varint(ops, bj - j);
            }
            ops.push_back(static_cast<char>(kOpCopy));
            put_varint(ops, run);
            i += run;
            j = bj + run;
            continue;
          }
        }
      }
    }
    pending.push_back(static_cast<char>(neu[i]));
    ++i;
  }
  flush();
  return ops;
}

/// Row-mode encoder for the fixed-width sections (nodes / hashes /
/// children). Greedy: maximal equal runs become COPY; maximal constant-
/// per-lane-delta runs become ADDROW (the offset-shift pattern); when
/// neither bites, a bounded search realigns the cursors across inserted /
/// removed rows with INSERT + SKIP. Returns nullopt when the sizes are not
/// row-multiples (the caller falls back to raw).
std::optional<std::string> encode_rows_delta(std::span<const std::uint8_t> base,
                                             std::span<const std::uint8_t> neu,
                                             std::size_t w) {
  const std::size_t row = w * 4;
  if (base.size() % row != 0 || neu.size() % row != 0) return std::nullopt;
  const std::size_t nb = base.size() / row;
  const std::size_t nn = neu.size() / row;
  const auto base_row = [&](std::size_t r) { return base.data() + r * row; };
  const auto new_row = [&](std::size_t r) { return neu.data() + r * row; };
  const auto rows_equal = [&](std::size_t i, std::size_t j) {
    return std::memcmp(new_row(i), base_row(j), row) == 0;
  };

  std::string ops;
  std::size_t i = 0, j = 0;  // new row / base row cursors
  while (i < nn && j < nb) {
    // 1. Equal run -> COPY.
    std::size_t e = 0;
    while (i + e < nn && j + e < nb && rows_equal(i + e, j + e)) ++e;
    if (e > 0) {
      ops.push_back(static_cast<char>(kOpCopy));
      put_varint(ops, e * row);
      i += e;
      j += e;
      continue;
    }
    // 2. Constant per-lane delta run -> ADDROW.
    std::int64_t d[kMaxRowWidth];
    for (std::size_t k = 0; k < w; ++k) {
      d[k] = static_cast<std::int64_t>(get_u32(new_row(i) + k * 4)) -
             static_cast<std::int64_t>(get_u32(base_row(j) + k * 4));
    }
    const auto delta_holds = [&](std::size_t di) {
      for (std::size_t k = 0; k < w; ++k) {
        const std::uint32_t bv = get_u32(base_row(j + di) + k * 4);
        const std::uint32_t nv = get_u32(new_row(i + di) + k * 4);
        if (static_cast<std::uint32_t>(static_cast<std::uint64_t>(bv) +
                                       static_cast<std::uint64_t>(d[k])) != nv) {
          return false;
        }
      }
      return true;
    };
    std::size_t c = 1;
    while (i + c < nn && j + c < nb && delta_holds(c)) ++c;
    if (c >= kMinDeltaRun) {
      ops.push_back(static_cast<char>(kOpAddRow));
      put_varint(ops, w);
      put_varint(ops, c);
      for (std::size_t k = 0; k < w; ++k) put_varint(ops, zigzag(d[k]));
      i += c;
      j += c;
      continue;
    }
    {
      // 3. Short mismatch: possibly inserted/removed rows. Find the nearest
      // realignment and splice across it.
      const auto matches_from = [&](std::size_t ni, std::size_t bj) {
        const std::size_t need =
            std::min(kResyncConfirm, std::min(nn - ni, nb - bj));
        if (need == 0) return false;
        for (std::size_t t = 0; t < need; ++t) {
          if (!rows_equal(ni + t, bj + t)) return false;
        }
        return true;
      };
      std::size_t best_di = 0, best_dj = 0;
      bool found = false;
      for (std::size_t cost = 1; cost <= 2 * kResyncWindow && !found; ++cost) {
        for (std::size_t di = 0; di <= cost && !found; ++di) {
          const std::size_t dj = cost - di;
          if (di > kResyncWindow || dj > kResyncWindow) continue;
          if (i + di >= nn || j + dj >= nb) continue;
          if (matches_from(i + di, j + dj)) {
            best_di = di;
            best_dj = dj;
            found = true;
          }
        }
      }
      if (found) {
        if (best_di > 0) {
          ops.push_back(static_cast<char>(kOpInsert));
          put_varint(ops, best_di * row);
          ops.append(reinterpret_cast<const char*>(new_row(i)), best_di * row);
          i += best_di;
        }
        if (best_dj > 0) {
          ops.push_back(static_cast<char>(kOpSkip));
          put_varint(ops, best_dj * row);
          j += best_dj;
        }
        continue;
      }
    }
    // 4. Aligned but jittery: the lanes shift by small row-varying amounts
    // (churn renumbers offsets unevenly), so constant-delta runs die after a
    // row or two and per-run ADDROW headers would dominate. Accumulate the
    // whole jittery region into one DIFFROW — per-row per-lane zigzag
    // deltas — breaking only where a COPY or ADDROW run worth its own
    // header begins.
    const auto const_run_from = [&](std::size_t m, std::size_t need) {
      if (i + m + need > nn || j + m + need > nb) return false;
      std::int64_t dd[kMaxRowWidth];
      for (std::size_t k = 0; k < w; ++k) {
        dd[k] = static_cast<std::int64_t>(get_u32(new_row(i + m) + k * 4)) -
                static_cast<std::int64_t>(get_u32(base_row(j + m) + k * 4));
      }
      for (std::size_t t = 1; t < need; ++t) {
        for (std::size_t k = 0; k < w; ++k) {
          const std::uint32_t bv = get_u32(base_row(j + m + t) + k * 4);
          const std::uint32_t nv = get_u32(new_row(i + m + t) + k * 4);
          if (static_cast<std::uint32_t>(static_cast<std::uint64_t>(bv) +
                                         static_cast<std::uint64_t>(dd[k])) != nv) {
            return false;
          }
        }
      }
      return true;
    };
    std::size_t m = 1;
    while (i + m < nn && j + m < nb) {
      if (rows_equal(i + m, j + m) &&
          (i + m + 1 >= nn || j + m + 1 >= nb || rows_equal(i + m + 1, j + m + 1))) {
        break;  // an equal run >= 2 repays a COPY header
      }
      if (const_run_from(m, kMinDeltaRun)) break;  // an ADDROW run begins
      ++m;
    }
    ops.push_back(static_cast<char>(kOpDiffRow));
    put_varint(ops, w);
    put_varint(ops, m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t k = 0; k < w; ++k) {
        const std::int64_t dr =
            static_cast<std::int64_t>(get_u32(new_row(i + r) + k * 4)) -
            static_cast<std::int64_t>(get_u32(base_row(j + r) + k * 4));
        put_varint(ops, zigzag(dr));
      }
    }
    i += m;
    j += m;
  }
  if (i < nn) {
    ops.push_back(static_cast<char>(kOpInsert));
    put_varint(ops, (nn - i) * row);
    ops.append(reinterpret_cast<const char*>(new_row(i)), (nn - i) * row);
  }
  return ops;
}

std::optional<std::string> encode_delta(std::span<const std::uint8_t> base,
                                        std::span<const std::uint8_t> neu,
                                        std::size_t row_width) {
  if (row_width == 0) return encode_bytes_delta(base, neu);
  return encode_rows_delta(base, neu, row_width);
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Arena record widths in u32 lanes, indexed like the section arrays:
/// nodes (12-byte Node = 3 lanes), hashes (1 lane), children (12-byte
/// Child = 3 lanes), pool (0 = unstructured bytes).
constexpr std::size_t kRowWidth[4] = {3, 1, 3, 0};

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

std::uint32_t Builder::intern_section(std::span<const std::uint8_t> bytes,
                                      std::size_t row_width,
                                      const std::uint32_t* prev_segment) {
  const std::uint64_t hash = fnv1a64(bytes.data(), bytes.size());
  for (const auto& [h, idx] : dedup_) {
    if (h != hash) continue;
    const std::string& d = *segments_[idx].decoded;
    if (d.size() == bytes.size() &&
        (bytes.empty() || std::memcmp(d.data(), bytes.data(), bytes.size()) == 0)) {
      return idx;
    }
  }

  BuiltSegment seg;
  seg.decoded = std::make_shared<const std::string>(
      reinterpret_cast<const char*>(bytes.data()), bytes.size());
  bool use_delta = false;
  if (prev_segment != nullptr) {
    const BuiltSegment& base = segments_[*prev_segment];
    if (base.chain_depth + 1 <= kMaxChainDepth) {
      auto ops = encode_delta(as_bytes(*base.decoded), bytes, row_width);
      // Worth storing only if clearly smaller than raw (7/8), and trusted
      // only after a full round trip: decode(base, ops) must reproduce the
      // new section bit-for-bit. An encoder bug can cost space, never
      // correctness.
      if (ops && ops->size() < bytes.size() - bytes.size() / 8) {
        std::vector<std::uint64_t> buf((bytes.size() + 7) / 8);
        const std::span<std::uint8_t> out(reinterpret_cast<std::uint8_t*>(buf.data()),
                                          bytes.size());
        const auto rt = decode_delta(as_bytes(*ops), as_bytes(*base.decoded), out);
        if (rt.ok() &&
            (bytes.empty() || std::memcmp(out.data(), bytes.data(), bytes.size()) == 0)) {
          seg.stored = std::move(*ops);
          seg.kind = kDeltaSegment;
          seg.base = *prev_segment;
          seg.chain_depth = base.chain_depth + 1;
          use_delta = true;
        }
      }
    }
  }
  if (!use_delta) {
    seg.stored.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    seg.kind = kRawSegment;
    seg.base = kNoBase;
    seg.chain_depth = 0;
  }
  if (std::getenv("PSL_STORE_DEBUG") != nullptr) {
    std::size_t n_copy = 0, n_ins = 0, n_skip = 0, n_add = 0, ins_bytes = 0;
    if (use_delta) {
      const auto ops = as_bytes(seg.stored);
      std::size_t pos = 0;
      while (pos < ops.size()) {
        const std::uint8_t op = ops[pos++];
        std::uint64_t n = 0;
        if (op == kOpCopy) { get_varint(ops, pos, n); ++n_copy; }
        else if (op == kOpInsert) { get_varint(ops, pos, n); ++n_ins; ins_bytes += n; pos += n; }
        else if (op == kOpSkip) { get_varint(ops, pos, n); ++n_skip; }
        else if (op == kOpAddRow) {
          std::uint64_t w = 0;
          get_varint(ops, pos, w);
          get_varint(ops, pos, n);
          for (std::uint64_t k = 0; k < w; ++k) { std::uint64_t zz; get_varint(ops, pos, zz); }
          ++n_add;
        } else break;
      }
    }
    std::fprintf(stderr,
                 "[store] w=%zu %s %zu -> %zu copy=%zu ins=%zu/%zuB skip=%zu add=%zu\n",
                 row_width, use_delta ? "delta" : "raw  ", bytes.size(),
                 seg.stored.size(), n_copy, n_ins, ins_bytes, n_skip, n_add);
  }
  seg.hash = fnv1a64(seg.stored.data(), seg.stored.size());
  const auto idx = static_cast<std::uint32_t>(segments_.size());
  segments_.push_back(std::move(seg));
  dedup_.emplace_back(hash, idx);
  return idx;
}

util::Result<std::size_t> Builder::add_snapshot(std::span<const std::uint8_t> snapshot_bytes) {
  // Full validation first (structure + checksums): a store only ever holds
  // snapshots that load.
  auto loaded = snapshot::load_copy(snapshot_bytes);
  if (!loaded.ok()) return loaded.error();
  const auto parsed = snapshot::parse_header(snapshot_bytes);
  if (!parsed.ok()) return parsed.error();
  const snapshot::HeaderView& h = *parsed;

  if (!records_.empty()) {
    const util::Date last = records_.back().meta.source_date;
    if (!(last < h.meta.source_date)) {
      return err("store.out-of-order",
                 "version dated " + h.meta.source_date.to_string() +
                     " does not follow " + last.to_string());
    }
  }

  const struct {
    std::uint64_t off, size;
  } sections[4] = {{h.nodes_off, h.nodes_bytes},
                   {h.hashes_off, h.hashes_bytes},
                   {h.children_off, h.children_bytes},
                   {h.pool_off, h.pool_bytes}};

  auto merged = add_temporal(h, snapshot_bytes, static_cast<std::uint32_t>(records_.size()));
  if (!merged.ok()) return merged.error();

  Record rec;
  rec.header.assign(reinterpret_cast<const char*>(snapshot_bytes.data()),
                    snapshot::kHeaderBytes);
  rec.meta = h.meta;
  for (int s = 0; s < 4; ++s) {
    const auto sec = snapshot_bytes.subspan(static_cast<std::size_t>(sections[s].off),
                                            static_cast<std::size_t>(sections[s].size));
    const std::uint32_t* prev = records_.empty() ? nullptr : &records_.back().seg[s];
    rec.seg[s] = intern_section(sec, kRowWidth[s], prev);
  }
  standalone_bytes_ += snapshot_bytes.size();
  records_.push_back(std::move(rec));
  return records_.size() - 1;
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
  meta.source_date = records_.empty() ? util::Date{0} : records_.back().meta.source_date;
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
  st.version_count = records_.size();
  st.segment_count = segments_.size();
  std::uint64_t size = kHeaderBytes;
  for (const BuiltSegment& seg : segments_) {
    size = align8(size) + seg.stored.size();
    if (seg.kind == kRawSegment) {
      ++st.raw_segments;
      st.raw_bytes += seg.stored.size();
    } else {
      ++st.delta_segments;
      st.delta_bytes += seg.stored.size();
    }
  }
  st.temporal_bytes = temporal_section().size();
  size = align8(align8(size) + st.temporal_bytes) + segments_.size() * kSegmentEntryBytes +
         records_.size() * kVersionRecordBytes;
  st.file_bytes = size;
  return st;
}

util::Result<std::string> Builder::serialize() const {
  if (records_.empty()) return err("store.empty", "no versions added");

  std::string out(kHeaderBytes, '\0');
  std::vector<std::uint64_t> offsets(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    out.resize(static_cast<std::size_t>(align8(out.size())), '\0');
    offsets[i] = out.size();
    out += segments_[i].stored;
  }
  out.resize(static_cast<std::size_t>(align8(out.size())), '\0');
  const std::uint64_t temporal_off = out.size();
  out += temporal_section();
  const std::uint64_t temporal_bytes = out.size() - temporal_off;
  out.resize(static_cast<std::size_t>(align8(out.size())), '\0');

  const std::uint64_t seg_table_off = out.size();
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const BuiltSegment& seg = segments_[i];
    put_u64(out, offsets[i]);
    put_u64(out, seg.stored.size());
    put_u64(out, seg.decoded->size());
    put_u64(out, seg.hash);
    put_u32(out, seg.kind);
    put_u32(out, seg.base);
  }
  const std::uint64_t ver_table_off = out.size();
  for (const Record& rec : records_) {
    out += rec.header;
    for (const std::uint32_t s : rec.seg) put_u32(out, s);
  }
  const std::uint64_t total = out.size();

  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagic, sizeof(kMagic));
  put_u32(header, kFormatVersion);
  put_u32(header, static_cast<std::uint32_t>(kHeaderBytes));
  put_u64(header, records_.size());
  put_u64(header, segments_.size());
  put_u64(header, seg_table_off);
  put_u64(header, ver_table_off);
  put_u64(header, total);
  put_u64(header, fnv1a64(out.data() + seg_table_off, ver_table_off - seg_table_off));
  put_u64(header, fnv1a64(out.data() + ver_table_off, total - ver_table_off));
  put_u64(header, static_cast<std::uint64_t>(static_cast<std::int64_t>(
                      records_.back().meta.source_date.days_since_epoch())));
  put_u64(header, standalone_bytes_);
  put_u64(header, temporal_off);
  put_u64(header, temporal_bytes);
  put_u64(header, fnv1a64(out.data() + temporal_off, temporal_bytes));
  put_u64(header, fnv1a64(header.data(), kHeaderBytes - 8));
  out.replace(0, kHeaderBytes, header);
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

struct StoreView::Mapping {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data), size);
    }
  }
};

StoreView::~StoreView() = default;

util::Result<std::shared_ptr<const StoreView>> StoreView::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return err("store.io", "cannot open " + path + " (" + std::strerror(errno) + ")");
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    return err("store.io", "cannot stat " + path + " (" + std::strerror(saved) + ")");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return err("store.truncated", path + " is " + std::to_string(size) +
                                      " bytes; header needs " + std::to_string(kHeaderBytes));
  }
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ, MAP_PRIVATE, fd, 0);
  const int saved = errno;
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return err("store.io", "cannot mmap " + path + " (" + std::strerror(saved) + ")");
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->data = static_cast<const std::uint8_t*>(mapped);
  mapping->size = static_cast<std::size_t>(size);
  const std::uint8_t* const p = mapping->data;

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
  if (fnv1a64(p, kHeaderBytes - 8) != get_u64(p + kHeaderBytes - 8)) {
    return err("store.checksum", "header checksum mismatch");
  }
  const std::uint64_t version_count = get_u64(p + 16);
  const std::uint64_t segment_count = get_u64(p + 24);
  const std::uint64_t seg_table_off = get_u64(p + 32);
  const std::uint64_t ver_table_off = get_u64(p + 40);
  const std::uint64_t total = get_u64(p + 48);
  const std::uint64_t seg_table_sum = get_u64(p + 56);
  const std::uint64_t ver_table_sum = get_u64(p + 64);
  const std::int64_t newest_days = static_cast<std::int64_t>(get_u64(p + 72));
  const std::uint64_t standalone_bytes = get_u64(p + 80);
  const std::uint64_t temporal_off = get_u64(p + 88);
  const std::uint64_t temporal_bytes = get_u64(p + 96);
  const std::uint64_t temporal_sum = get_u64(p + 104);
  if (version_count == 0 || segment_count == 0) {
    return err("store.bad-header", "empty version or segment table");
  }
  if (total != size) {
    return err("store.truncated", path + " is " + std::to_string(size) +
                                      " bytes; header declares " + std::to_string(total));
  }
  // The tables tile the file tail exactly: [seg table][version table][EOF].
  if (segment_count > (size - kHeaderBytes) / kSegmentEntryBytes ||
      version_count > (size - kHeaderBytes) / kVersionRecordBytes) {
    return err("store.bad-header", "table sizes exceed the file");
  }
  const std::uint64_t seg_table_bytes = segment_count * kSegmentEntryBytes;
  const std::uint64_t ver_table_bytes = version_count * kVersionRecordBytes;
  if (seg_table_off < kHeaderBytes || seg_table_off % 8 != 0 ||
      seg_table_off + seg_table_bytes != ver_table_off ||
      ver_table_off + ver_table_bytes != total) {
    return err("store.bad-header", "table layout inconsistent");
  }
  if (temporal_off < kHeaderBytes || temporal_off % 8 != 0 || temporal_off > seg_table_off ||
      temporal_bytes > seg_table_off - temporal_off) {
    return err("store.bad-header", "temporal section out of bounds");
  }
  if (fnv1a64(p + seg_table_off, seg_table_bytes) != seg_table_sum) {
    return err("store.checksum", "segment table checksum mismatch");
  }
  if (fnv1a64(p + ver_table_off, ver_table_bytes) != ver_table_sum) {
    return err("store.checksum", "version table checksum mismatch");
  }
  if (fnv1a64(p + temporal_off, temporal_bytes) != temporal_sum) {
    return err("store.checksum", "temporal section checksum mismatch");
  }

  // Zero padding of under 8 bytes between one region's end and the next.
  const auto check_gap = [p](std::uint64_t from, std::uint64_t to,
                             const std::string& where) -> std::optional<util::Error> {
    if (to - from >= 8) return err("store.bad-padding", where + ": oversized gap");
    for (std::uint64_t g = from; g < to; ++g) {
      if (p[g] != 0) return err("store.bad-padding", where + ": nonzero padding");
    }
    return std::nullopt;
  };

  std::shared_ptr<StoreView> view(new StoreView());
  view->path_ = path;
  view->mapping_ = mapping;

  // --- segment table --------------------------------------------------------
  view->segments_.reserve(segment_count);
  std::vector<std::uint32_t> depth(segment_count, 0);
  std::uint64_t cursor = kHeaderBytes;
  Stats stats;
  for (std::uint64_t i = 0; i < segment_count; ++i) {
    const std::uint8_t* const e = p + seg_table_off + i * kSegmentEntryBytes;
    Segment seg;
    seg.offset = get_u64(e);
    seg.stored = get_u64(e + 8);
    seg.decoded = get_u64(e + 16);
    seg.hash = get_u64(e + 24);
    seg.kind = get_u32(e + 32);
    seg.base = get_u32(e + 36);
    const std::string at = "segment " + std::to_string(i);
    if (seg.kind == kRawSegment) {
      if (seg.base != kNoBase || seg.decoded != seg.stored) {
        return err("store.bad-segment", at + ": raw entry inconsistent");
      }
    } else if (seg.kind == kDeltaSegment) {
      if (seg.base >= i) {
        return err("store.bad-segment", at + ": delta base must be an earlier segment");
      }
      depth[i] = depth[seg.base] + 1;
      if (depth[i] > kMaxChainDepth) {
        return err("store.bad-segment", at + ": delta chain too deep");
      }
    } else {
      return err("store.bad-segment", at + ": unknown kind");
    }
    if (seg.offset < cursor || seg.offset % 8 != 0 || seg.offset > temporal_off ||
        seg.stored > temporal_off - seg.offset) {
      return err("store.bad-segment", at + ": data out of bounds");
    }
    if (auto gap = check_gap(cursor, seg.offset, at)) return *gap;
    if (fnv1a64(p + seg.offset, seg.stored) != seg.hash) {
      return err("store.checksum", at + ": stored-byte checksum mismatch");
    }
    cursor = seg.offset + seg.stored;
    if (seg.kind == kRawSegment) {
      ++stats.raw_segments;
      stats.raw_bytes += seg.stored;
    } else {
      ++stats.delta_segments;
      stats.delta_bytes += seg.stored;
    }
    view->segments_.push_back(seg);
  }
  if (auto gap = check_gap(cursor, temporal_off, "before the temporal section")) return *gap;
  if (auto gap = check_gap(temporal_off + temporal_bytes, seg_table_off,
                           "before the segment table")) {
    return *gap;
  }

  // --- version table --------------------------------------------------------
  view->versions_.reserve(version_count);
  for (std::uint64_t v = 0; v < version_count; ++v) {
    const std::uint64_t rec_off = ver_table_off + v * kVersionRecordBytes;
    const std::string at = "version " + std::to_string(v);
    const auto parsed = snapshot::parse_header(
        std::span<const std::uint8_t>(p + rec_off, snapshot::kHeaderBytes));
    if (!parsed.ok()) {
      return err("store.bad-record", at + ": " + parsed.error().code + ": " +
                                         parsed.error().message);
    }
    const snapshot::HeaderView& h = *parsed;
    VersionRecord rec;
    rec.meta = h.meta;
    rec.header_offset = rec_off;
    const std::uint64_t section_bytes[4] = {h.nodes_bytes, h.hashes_bytes, h.children_bytes,
                                            h.pool_bytes};
    for (int s = 0; s < 4; ++s) {
      rec.seg[s] = get_u32(p + rec_off + snapshot::kHeaderBytes +
                           static_cast<std::uint64_t>(4 * s));
      if (rec.seg[s] >= segment_count) {
        return err("store.bad-record", at + ": segment index out of range");
      }
      rec.section_bytes[s] = section_bytes[s];
      if (view->segments_[rec.seg[s]].decoded != section_bytes[s]) {
        return err("store.bad-record", at + ": segment size does not match the header");
      }
    }
    if (!view->versions_.empty() &&
        !(view->versions_.back().meta.source_date < rec.meta.source_date)) {
      return err("store.bad-record", "version dates must be strictly increasing");
    }
    view->versions_.push_back(rec);
  }
  if (view->versions_.back().meta.source_date.days_since_epoch() != newest_days) {
    return err("store.bad-header", "newest-date field does not match the last version");
  }

  const std::span<const std::uint8_t> temporal(p + temporal_off,
                                               static_cast<std::size_t>(temporal_bytes));
  if (auto bad = view->adopt_temporal(temporal)) {
    return err("store.bad-temporal", *bad);
  }

  stats.file_bytes = size;
  stats.temporal_bytes = temporal_bytes;
  stats.standalone_bytes = standalone_bytes;
  stats.version_count = version_count;
  stats.segment_count = segment_count;
  view->stats_ = stats;
  view->decoded_.resize(segment_count);
  view->materialized_.resize(version_count);
  return std::shared_ptr<const StoreView>(std::move(view));
}

util::Result<std::size_t> StoreView::version_index_at(util::Date date) const {
  if (date < versions_.front().meta.source_date) {
    return err("store.no-version", "date " + date.to_string() +
                                       " precedes the first stored version (" +
                                       versions_.front().meta.source_date.to_string() + ")");
  }
  // Last version with source_date <= date.
  std::size_t lo = 0, hi = versions_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (versions_[mid].meta.source_date <= date) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

util::Result<std::pair<std::span<const std::uint8_t>, std::shared_ptr<const void>>>
StoreView::segment_bytes(std::uint32_t s) const {
  const Segment& seg = segments_[s];
  const std::span<const std::uint8_t> stored(mapping_->data + seg.offset,
                                             static_cast<std::size_t>(seg.stored));
  if (seg.kind == kRawSegment) {
    // Zero-copy: the bytes live in the mapping, which the caller's retain
    // struct keeps alive alongside any decoded buffers.
    return std::make_pair(stored, std::shared_ptr<const void>());
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (decoded_[s]) {
      const auto& buf = decoded_[s];
      return std::make_pair(
          std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(buf->data()),
                                        static_cast<std::size_t>(seg.decoded)),
          std::shared_ptr<const void>(buf));
    }
  }
  auto base = segment_bytes(seg.base);  // recursion bounded by kMaxChainDepth
  if (!base.ok()) return base.error();
  auto buf = std::make_shared<std::vector<std::uint64_t>>(
      (static_cast<std::size_t>(seg.decoded) + 7) / 8);
  const std::span<std::uint8_t> out(reinterpret_cast<std::uint8_t*>(buf->data()),
                                    static_cast<std::size_t>(seg.decoded));
  const auto decoded = decode_delta(stored, base->first, out);
  if (!decoded.ok()) {
    return err("store.bad-delta",
               "segment " + std::to_string(s) + ": " + decoded.error().message);
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!decoded_[s]) decoded_[s] = std::move(buf);  // first decoder wins
  const auto& winner = decoded_[s];
  return std::make_pair(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(winner->data()),
                                    static_cast<std::size_t>(seg.decoded)),
      std::shared_ptr<const void>(winner));
}

util::Result<snapshot::Snapshot> StoreView::open_version(std::size_t v) const {
  if (v >= versions_.size()) {
    return err("store.no-version", "version index " + std::to_string(v) + " out of range");
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (materialized_[v]) return *materialized_[v];
  }
  const VersionRecord& rec = versions_[v];

  /// Keeps every buffer a materialized Snapshot points into alive: the whole
  /// mapping (raw sections + the verbatim header) and any decoded delta
  /// buffers — so Snapshots outlive the StoreView itself.
  struct Retain {
    std::shared_ptr<const Mapping> mapping;
    std::shared_ptr<const void> sections[4];
  };
  auto retain = std::make_shared<Retain>();
  retain->mapping = mapping_;
  std::span<const std::uint8_t> sections[4];
  for (int s = 0; s < 4; ++s) {
    auto bytes = segment_bytes(rec.seg[s]);
    if (!bytes.ok()) return bytes.error();
    sections[s] = bytes->first;
    retain->sections[s] = bytes->second;
  }
  const std::span<const std::uint8_t> header(mapping_->data + rec.header_offset,
                                             snapshot::kHeaderBytes);
  // Full snapshot validation, checksums included, against the VERBATIM
  // standalone header — this is the bit-identity proof (a reassembly bug or
  // store corruption surfaces here, not in query answers).
  auto snap = snapshot::load_view_sections(header, sections[0], sections[1], sections[2],
                                           sections[3], std::move(retain));
  if (!snap.ok()) return snap.error();
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!materialized_[v]) materialized_[v] = std::move(*snap);
  return *materialized_[v];
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

util::Result<std::vector<DivergenceRange>> StoreView::divergence(std::string_view host) const {
  const CompiledMatcher& arena = temporal_->matcher;
  // The nodes a walk visits depend only on the trie's shape, never on rule
  // bits, so one walk finds every version where this host's answer can
  // change: the change points of the nodes on its path.
  std::vector<std::uint32_t> cuts{0};
  std::uint32_t last = 0xFFFFFFFFu;
  (void)arena.match_view_with(host, [&](const CompiledMatcher&, std::uint32_t node) {
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
    const MatchView m = arena.match_view_with(
        host, [this, first](const CompiledMatcher&, std::uint32_t node) {
          return rules_at(node, first);
        });
    const util::Date first_date = versions_[first].meta.source_date;
    const util::Date last_date = versions_[end - 1].meta.source_date;
    if (out.empty() || out.back().registrable_domain != m.registrable_domain) {
      out.push_back(DivergenceRange{first_date, last_date, std::string(m.registrable_domain)});
    } else {
      out.back().last_date = last_date;
    }
  }
  return out;
}

}  // namespace psl::store
