// Fuzz harness for psl::store's loader: StoreView::open, then open_version,
// match_at and divergence over the temporal section.
//
// Invariants:
//   - arbitrary bytes never crash open: every outcome is a valid view or a
//     clean "store.*" Result error, with no UB (the ASan/UBSan smoke job
//     runs this harness)
//   - a store that opens is fully validated: every version materializes
//     through open_version, and match_at answers each host exactly as that
//     materialized version does
//   - a store that opens answers divergence() for any host with ranges that
//     tile the whole version range, oldest first
//
// Three input modes keep coverage deep: raw bytes exercise the header gates;
// mutations of a known-valid store reach the checksum checks; and
// mutations that are then re-sealed (the file checksum recomputed) reach
// the structural checks behind it — the version records and the temporal
// section's snapshot, index and change points.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz_common.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/store/store.hpp"

namespace {

const std::string& valid_store() {
  static const std::string bytes = [] {
    psl::store::Builder builder;
    const char* const lists[] = {"com\nuk\nco.uk\n", "com\nuk\nco.uk\n*.ck\ngithub.io\n",
                                 "com\nuk\n*.ck\n!www.ck\ngithub.io\n"};
    std::int32_t day = 15000;
    for (const char* text : lists) {
      auto parsed = psl::List::parse(text);
      psl::snapshot::Metadata meta;
      meta.source_date = psl::util::Date{day += 30};
      meta.rule_count = parsed->rules().size();
      (void)builder.add(psl::CompiledMatcher(*parsed), meta);
    }
    return *builder.serialize();
  }();
  return bytes;
}

std::uint64_t fnv1a64(const std::uint8_t* p, std::uint64_t len,
                      std::uint64_t h = 14695981039346656037ull) {
  for (std::uint64_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Recompute the file checksum the store layout (store.hpp) declares: every
/// byte but the checksum field itself.
void reseal(std::vector<std::uint8_t>& b) {
  const std::size_t header = psl::store::kHeaderBytes;
  if (b.size() < header) return;
  const std::uint64_t head = fnv1a64(b.data(), header - 8);
  put_u64(b, header - 8, fnv1a64(b.data() + header, b.size() - header, head));
}

/// One temporary file per process, removed at exit.
std::string g_temp_path;

const std::string& temp_path() {
  if (g_temp_path.empty()) {
    const char* dir = std::getenv("TMPDIR");
    std::string tmpl = std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
                       "/fuzz_load_store.XXXXXX";
    const int fd = ::mkstemp(tmpl.data());
    if (fd < 0) __builtin_trap();
    ::close(fd);
    g_temp_path = tmpl;
    std::atexit([] { std::remove(g_temp_path.c_str()); });
  }
  return g_temp_path;
}

bool has_prefix(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::vector<std::uint8_t> blob;
  const std::uint8_t mode = size >= 1 ? data[0] % 3 : 1;
  if (mode == 0) {
    blob.assign(data + 1, data + size);
  } else {
    // Mutation: (offset, xor) edits over a valid store, an optional
    // truncation, then (mode 2) fresh checksums.
    const std::string& valid = valid_store();
    blob.assign(valid.begin(), valid.end());
    std::size_t i = 1;
    while (i + 3 <= size) {
      const std::size_t offset =
          ((static_cast<std::size_t>(data[i]) << 8) | data[i + 1]) % blob.size();
      blob[offset] ^= data[i + 2];
      i += 3;
    }
    if (i < size && (data[i] & 1) != 0) blob.resize(blob.size() * data[i] / 255);
    if (mode == 2) reseal(blob);
  }

  {
    std::ofstream out(temp_path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) __builtin_trap();
  }
  const auto view = psl::store::StoreView::open(temp_path());
  if (!view.ok()) {
    if (!has_prefix(view.error().code, "store.")) __builtin_trap();
    return 0;
  }
  const psl::store::StoreView& store = **view;
  static const std::vector<std::string> hosts = {
      "a.b.co.uk", "x.t.ck", "www.ck", "", "com", "a..b", std::string(300, '.'),
      std::string(400, 'a') + ".ck"};
  const std::vector<std::string_view> host_views(hosts.begin(), hosts.end());
  std::vector<psl::MatchView> answers(hosts.size());
  for (std::size_t v = 0; v < store.version_count(); ++v) {
    const auto snap = store.open_version(v);
    const auto meta = store.match_at(store.version_date(v), host_views, answers);
    if (!snap.ok() || !meta.ok() || meta->source_date != store.version_date(v)) {
      __builtin_trap();
    }
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const psl::MatchView want = snap->matcher.match_view(hosts[i]);
      if (want.public_suffix != answers[i].public_suffix ||
          want.registrable_domain != answers[i].registrable_domain) {
        __builtin_trap();
      }
    }
  }
  for (const std::string& host : hosts) {
    const auto ranges = store.divergence(host);
    if (!ranges.ok() || ranges->empty()) __builtin_trap();
    if (ranges->front().first_date != store.version_date(0) ||
        ranges->back().last_date != store.version_date(store.version_count() - 1)) {
      __builtin_trap();
    }
    for (std::size_t r = 1; r < ranges->size(); ++r) {
      if (!((*ranges)[r - 1].last_date < (*ranges)[r].first_date)) __builtin_trap();
    }
  }
  return 0;
}
