// Workload generation and the oracle: every request a workload sends is
// built here from the seed, together with the answer List::match (or the
// version's History::snapshot) says a correct psld must give, before any
// clock starts.
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "layers.hpp"
#include "psl/archive/corpus.hpp"
#include "psl/history/timeline.hpp"
#include "psl/idna/punycode.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/zipf.hpp"

namespace psl::bench::layers {

namespace {

using net::FrameType;

constexpr std::size_t kMatchBatchHosts = 256;
constexpr std::size_t kMatchAtHosts = 64;
constexpr std::size_t kDivergenceEvery = 16;
constexpr std::size_t kSameSitePairs = 256;
constexpr std::size_t kIngestRecords = 1024;
constexpr std::size_t kTopList = 10000;      ///< mixed_rw's churning head of the ranking
constexpr double kChurnPerSecond = 0.05;     ///< share of the head replaced each second
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kOracleThreads = 4;  ///< time_travel oracle, before any clock starts

void put_match(std::vector<std::uint8_t>& out, const MatchView& m) {
  net::put_str16(out, m.public_suffix);
  net::put_str16(out, m.registrable_domain);
  net::put_u8(out, static_cast<std::uint8_t>((m.matched_explicit_rule ? 1u : 0u) |
                                             (m.section == Section::kPrivate ? 2u : 0u)));
}

void put_ok(std::vector<std::uint8_t>& out) {
  net::put_u8(out, static_cast<std::uint8_t>(net::Status::kOk));
}

/// match_batch request over `hosts` and List::match's answer to it.
Request match_request(const List& list, std::span<const std::string_view> hosts) {
  Request r;
  r.type = FrameType::kMatchBatch;
  r.units = static_cast<std::uint32_t>(hosts.size());
  net::put_u32(r.payload, r.units);
  put_ok(r.expect);
  net::put_u32(r.expect, r.units);
  for (const std::string_view h : hosts) {
    net::put_str16(r.payload, h);
    put_match(r.expect, list.match_view(h));
  }
  return r;
}

std::string rule_suffix(const Rule& rule) {
  std::string out;
  for (const auto& label : rule.labels()) {
    if (!out.empty()) out.push_back('.');
    out += label;
  }
  return out;
}

/// A short lower-case label unique to `i`.
std::string label_of(std::uint64_t i, std::uint64_t salt) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out = "h";
  std::uint64_t v = i * 0x9E3779B97F4A7C15ULL + salt;
  out += kAlphabet[v % 26];
  for (std::uint64_t n = i; n > 0; n /= 36) out += kAlphabet[n % 36];
  return out;
}

/// Zipf(s = 1.0) draws over `n` items; rank r maps to a seeded permutation
/// so the hot items are not the generator's first outputs.
std::vector<std::uint32_t> zipf_stream(util::Rng rng, std::size_t n, std::size_t count) {
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(perm);
  const util::ZipfSampler zipf(n, kZipfExponent);
  std::vector<std::uint32_t> out(count);
  for (auto& id : out) id = perm[zipf.sample(rng)];
  return out;
}

archive::Corpus corpus_for(std::uint64_t seed, const history::History& history,
                           const Scale& scale) {
  archive::CorpusSpec spec = scale.smoke ? archive::CorpusSpec::tiny() : archive::CorpusSpec{};
  spec.seed = util::Rng(seed).fork(1)();
  return archive::generate_corpus(spec, history);
}

/// The cold_flood pool: unique subdomains of real rules, 10% punycode
/// labels and 5% degenerate or hostile names, all distinct by construction.
std::string flood_arena(util::Rng rng, const List& list, std::size_t count,
                        std::vector<std::size_t>& ends) {
  const auto& rules = list.rules();
  std::string arena;
  arena.reserve(count * 32);
  ends.reserve(count);
  const std::uint64_t salt = rng();
  for (std::size_t i = 0; i < count; ++i) {
    const std::string suffix = rule_suffix(rules[rng.below(rules.size())]);
    const std::string label = label_of(i, salt);
    const double kind = rng.uniform01();
    std::string host;
    if (kind < 0.10) {
      std::vector<idna::CodePoint> cps;
      const std::size_t n = 2 + rng.below(4);
      for (std::size_t k = 0; k < n; ++k) {
        cps.push_back(static_cast<idna::CodePoint>(0x4E00 + rng.below(0x5000)));
      }
      for (const char c : label) cps.push_back(static_cast<idna::CodePoint>(c));
      auto encoded = idna::punycode_encode(cps);
      host = (encoded.ok() ? "xn--" + *encoded : label) + "." + suffix;
    } else if (kind < 0.15) {
      switch (i % 6) {
        case 0: host = label + ".." + suffix; break;
        case 1: host = label + std::string(63 - std::min<std::size_t>(label.size(), 62), 'q') +
                       "." + suffix; break;
        case 2: {
          host = label;
          for (int k = 0; k < 126; ++k) host += ".a";
          break;
        }
        case 3: host = label + "." + suffix + "."; break;
        case 4:
          host = std::to_string(10 + (i >> 24) % 240) + "." + std::to_string((i >> 16) & 255) +
                 "." + std::to_string((i >> 8) & 255) + "." + std::to_string(i & 255);
          break;
        default: {
          host = "WwW." + label + "." + suffix;
          for (std::size_t k = 4; k < host.size(); k += 2) {
            if (host[k] >= 'a' && host[k] <= 'z') host[k] = static_cast<char>(host[k] - 32);
          }
        }
      }
    } else {
      host = (rng.chance(0.3) ? "www." : "") + label + "." + suffix;
    }
    arena += host;
    ends.push_back(arena.size());
  }
  return arena;
}

void make_zipf_hot(Inputs& in, util::Rng rng, const archive::Corpus& corpus, const List& newest,
                   const Scale& scale) {
  in.storage = corpus.hostnames();
  for (const std::uint32_t id :
       zipf_stream(rng.fork(2), in.storage.size(), scale.tcp_requests * kMatchBatchHosts)) {
    in.hosts.push_back(in.storage[id]);
  }
  in.pool = match_pool(newest, in.hosts, kMatchBatchHosts, in.hosts.size());
}

void make_cold_flood(Inputs& in, util::Rng rng, const List& newest, const Scale& scale) {
  std::vector<std::size_t> ends;
  in.storage.push_back(flood_arena(rng.fork(2), newest, scale.flood_hosts, ends));
  const std::string_view arena = in.storage.back();
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    in.hosts.push_back(arena.substr(begin, end - begin));
    begin = end;
  }
  in.pool = match_pool(newest, in.hosts, kMatchBatchHosts, in.hosts.size());
}

void make_single_udp(Inputs& in, util::Rng rng, const archive::Corpus& corpus,
                     const List& newest, const Scale& scale) {
  in.storage = corpus.hostnames();
  const std::vector<std::string_view> distinct(in.storage.begin(), in.storage.end());
  in.pool = match_pool(newest, distinct, 1, distinct.size());
  in.order = zipf_stream(rng.fork(2), in.storage.size(), scale.stream_hosts);
  for (const std::uint32_t id : in.order) in.hosts.push_back(in.storage[id]);
}

void make_time_travel(Inputs& in, util::Rng rng, const archive::Corpus& corpus,
                      const history::History& history, const Scale& scale) {
  in.uses_store = true;
  in.primary = FrameType::kMatchAt;
  in.storage = corpus.hostnames();
  for (const std::uint32_t id :
       zipf_stream(rng.fork(2), in.storage.size(), scale.match_at_requests * kMatchAtHosts)) {
    in.hosts.push_back(in.storage[id]);
  }
  const std::size_t versions = history.version_count();
  util::Rng dates = rng.fork(3);
  // Per version: (pool index, request number) of the match_at requests it answers.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_version(versions);
  std::vector<std::size_t> divergences;
  for (std::size_t k = 0; k < scale.match_at_requests; ++k) {
    const std::size_t v = dates.below(versions);
    const std::int32_t lo = history.version_date(v).days_since_epoch();
    const std::int32_t hi =
        v + 1 < versions ? history.version_date(v + 1).days_since_epoch() : lo + 1;
    const std::int64_t day = lo + static_cast<std::int64_t>(dates.below(hi - lo));
    Request r;
    r.type = FrameType::kMatchAt;
    r.units = kMatchAtHosts;
    net::put_u64(r.payload, static_cast<std::uint64_t>(day));
    net::put_u32(r.payload, r.units);
    for (std::size_t i = 0; i < kMatchAtHosts; ++i) {
      net::put_str16(r.payload, in.hosts[k * kMatchAtHosts + i]);
    }
    by_version[v].emplace_back(in.pool.size(), k);
    in.pool.push_back(std::move(r));
    if (k % kDivergenceEvery == kDivergenceEvery - 1) {
      Request d;
      d.type = FrameType::kDivergence;
      d.units = 1;
      net::put_str16(d.payload, in.hosts[k * kMatchAtHosts]);
      divergences.push_back(in.pool.size());
      in.pool.push_back(std::move(d));
    }
  }

  // One version at a time: each version's list answers its match_at
  // requests and records every divergence host's registrable domain. The
  // versions are split across a few threads (each writes only its own
  // versions' requests and rows); the divergence runs are folded after.
  const std::size_t hosts_d = divergences.size();
  std::vector<std::string_view> domains(versions * hosts_d);  // views into in.hosts
  const auto answer = [&](std::size_t first, std::size_t last) {
    for (std::size_t v = first; v < last; ++v) {
      const List list = history.snapshot(v);
      const std::int64_t date = history.version_date(v).days_since_epoch();
      for (const auto& [idx, k] : by_version[v]) {
        Request& r = in.pool[idx];
        put_ok(r.expect);
        net::put_u64(r.expect, static_cast<std::uint64_t>(date));
        net::put_u64(r.expect, list.rule_count());
        net::put_u32(r.expect, r.units);
        for (std::size_t i = 0; i < kMatchAtHosts; ++i) {
          put_match(r.expect, list.match_view(in.hosts[k * kMatchAtHosts + i]));
        }
      }
      for (std::size_t d = 0; d < hosts_d; ++d) {
        const std::size_t k = (d + 1) * kDivergenceEvery - 1;
        domains[v * hosts_d + d] =
            list.match_view(in.hosts[k * kMatchAtHosts]).registrable_domain;
      }
    }
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kOracleThreads; ++t) {
      workers.emplace_back(answer, versions * t / kOracleThreads,
                           versions * (t + 1) / kOracleThreads);
    }
  }
  for (std::size_t d = 0; d < hosts_d; ++d) {
    // Runs of consecutive versions with one registrable domain, oldest first.
    std::vector<std::size_t> starts;
    for (std::size_t v = 0; v < versions; ++v) {
      if (v == 0 || domains[v * hosts_d + d] != domains[(v - 1) * hosts_d + d]) {
        starts.push_back(v);
      }
    }
    Request& r = in.pool[divergences[d]];
    put_ok(r.expect);
    net::put_u32(r.expect, static_cast<std::uint32_t>(starts.size()));
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::size_t last = i + 1 < starts.size() ? starts[i + 1] - 1 : versions - 1;
      net::put_u64(r.expect, static_cast<std::uint64_t>(static_cast<std::int64_t>(
                                 history.version_date(starts[i]).days_since_epoch())));
      net::put_u64(r.expect, static_cast<std::uint64_t>(static_cast<std::int64_t>(
                                 history.version_date(last).days_since_epoch())));
      net::put_str16(r.expect, domains[starts[i] * hosts_d + d]);
    }
  }
}

std::string snapshot_bytes(const List& list, util::Date date) {
  return snapshot::serialize(CompiledMatcher(list), {date, list.rule_count()});
}

void make_mixed_rw(Inputs& in, util::Rng rng, const archive::Corpus& corpus,
                   const history::History& history, const Scale& scale, double horizon_s) {
  in.primary = FrameType::kSameSiteBatch;
  in.psld_flags = {"--analytics"};
  const std::size_t versions = history.version_count();
  const List& newest = history.latest();
  const List previous = history.snapshot(versions - 2);
  const std::string reloads[] = {snapshot_bytes(previous, history.version_date(versions - 2)),
                                 snapshot_bytes(newest, history.version_date(versions - 1))};
  in.storage = corpus.hostnames();
  const auto& requests = corpus.requests();

  // Ranks over the corpus's (page, resource) pairs; each second 5% of the
  // top-list positions trade places with pairs from outside it.
  const std::size_t universe = requests.size();
  const std::size_t top = std::min(kTopList, universe / 2);
  std::vector<std::uint32_t> rank_to_pair(universe);
  for (std::size_t i = 0; i < universe; ++i) rank_to_pair[i] = static_cast<std::uint32_t>(i);
  util::Rng churn = rng.fork(2);
  churn.shuffle(rank_to_pair);
  const util::ZipfSampler zipf(universe, kZipfExponent);
  util::Rng draws = rng.fork(3);
  const auto seconds = static_cast<std::size_t>(horizon_s) + 1;
  for (std::size_t s = 0; s < seconds; ++s) {
    std::vector<Request> bucket;
    for (std::size_t q = 0; q < scale.same_site_per_second; ++q) {
      Request r;
      r.type = FrameType::kSameSiteBatch;
      r.units = kSameSitePairs;
      net::put_u32(r.payload, r.units);
      put_ok(r.expect);
      net::put_u32(r.expect, r.units);
      put_ok(r.expect_alt);
      net::put_u32(r.expect_alt, r.units);
      for (std::size_t p = 0; p < kSameSitePairs; ++p) {
        const archive::Request& pair = requests[rank_to_pair[zipf.sample(draws)]];
        const std::string_view a = in.storage[pair.page_host];
        const std::string_view b = in.storage[pair.resource_host];
        net::put_str16(r.payload, a);
        net::put_str16(r.payload, b);
        net::put_u8(r.expect, psl::same_site(newest, a, b) ? 1 : 0);
        net::put_u8(r.expect_alt, psl::same_site(previous, a, b) ? 1 : 0);
        in.hosts.push_back(a);
        in.hosts.push_back(b);
      }
      bucket.push_back(std::move(r));
    }
    in.buckets.push_back(std::move(bucket));
    const auto swaps = static_cast<std::size_t>(kChurnPerSecond * static_cast<double>(top));
    for (std::size_t k = 0; k < swaps; ++k) {
      std::swap(rank_to_pair[churn.below(top)],
                rank_to_pair[top + churn.below(universe - top)]);
    }
  }

  util::Rng offsets = rng.fork(4);
  std::uint64_t timestamp_ms = 1656633600000ULL;  // 2022-07-01, the archive snapshot
  for (std::size_t q = 0; q < scale.ingest_requests; ++q) {
    Request r;
    r.type = FrameType::kIngestBatch;
    r.check = Check::kIngestAck;
    r.units = kIngestRecords;
    net::put_u32(r.payload, r.units);
    const std::size_t start = offsets.below(universe);
    for (std::size_t i = 0; i < kIngestRecords; ++i) {
      const archive::Request& pair = requests[(start + i) % universe];
      net::put_str16(r.payload, in.storage[pair.page_host]);
      net::put_str16(r.payload, in.storage[pair.resource_host]);
      net::put_u64(r.payload, timestamp_ms++);
    }
    in.side_pool.push_back(std::move(r));
  }
  for (const std::string& bytes : reloads) {
    Request r;
    r.type = FrameType::kReload;
    r.check = Check::kReloadAck;
    r.payload.assign(bytes.begin(), bytes.end());
    in.side_pool.push_back(std::move(r));
  }
  Request census;
  census.type = FrameType::kCensusQuery;
  census.check = Check::kCensus;
  net::put_u32(census.payload, 0);
  in.side_pool.push_back(std::move(census));
}

}  // namespace

const char* name_of(Workload w) {
  switch (w) {
    case Workload::kZipfHot: return "zipf_hot";
    case Workload::kColdFlood: return "cold_flood";
    case Workload::kSingleUdp: return "single_udp";
    case Workload::kTimeTravel: return "time_travel";
    case Workload::kMixedRw: return "mixed_rw";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

const char* loop_of(Workload w) {
  switch (w) {
    case Workload::kZipfHot:
      return "closed loop: 4 TCP conns x 4 in flight, match_batch of 256 Zipf corpus hosts";
    case Workload::kColdFlood:
      return "closed loop: 4 TCP conns x 4 in flight, match_batch of 256 unique flood hosts";
    case Workload::kSingleUdp:
      return "open loop: 1 host per datagram on 4 UDP sockets at a fixed rate";
    case Workload::kTimeTravel:
      return "closed loop: 4 TCP conns x 2 in flight, match_at of 64 hosts + divergence";
    case Workload::kMixedRw:
      return "closed loop: 2 same_site conns, 1 ingest conn, 1 timed reload/census conn";
  }
  return "?";
}

Scale Scale::for_smoke() {
  Scale s;
  s.smoke = true;
  s.flood_hosts = 65536;
  s.tcp_requests = 64;
  s.stream_hosts = 16384;
  s.match_at_requests = 256;
  s.same_site_per_second = 8;
  s.ingest_requests = 8;
  return s;
}

Fixture make_fixture(bool tiny, const std::string& dir) {
  Fixture fx{history::generate_history(tiny ? history::TimelineSpec::tiny()
                                            : history::TimelineSpec{}),
             dir, dir + (tiny ? "/history-tiny.pstore" : "/history-full.pstore")};
  ::mkdir(dir.c_str(), 0755);
  const std::size_t versions = fx.history.version_count();
  // A cached store is reused only if it holds this history's versions.
  auto cached = store::StoreView::open(fx.store_path);
  bool current = cached.ok() && (*cached)->version_count() == versions;
  for (std::size_t v = 0; current && v < versions; ++v) {
    current = (*cached)->version_date(v) == fx.history.version_date(v) &&
              (*cached)->rule_count(v) == fx.history.rule_count(v);
  }
  if (!current) {
    std::cerr << "[bench_layers] building the " << versions << "-version store fixture\n";
    const auto t0 = Clock::now();
    store::Builder builder;
    for (std::size_t v = 0; v < versions; ++v) {
      const List list = fx.history.snapshot(v);
      auto added = builder.add(CompiledMatcher(list),
                               {fx.history.version_date(v), list.rule_count()});
      if (!added.ok()) {
        std::cerr << "store fixture: " << added.error().message << "\n";
        std::exit(2);
      }
    }
    auto written = builder.write_file(fx.store_path);
    if (!written.ok()) {
      std::cerr << "store fixture: " << written.error().message << "\n";
      std::exit(2);
    }
    fx.store_build_s = seconds(Clock::now() - t0);
    cached = store::StoreView::open(fx.store_path);
    if (!cached.ok()) {
      std::cerr << "store fixture: " << cached.error().message << "\n";
      std::exit(2);
    }
  }
  fx.store_file_mib = static_cast<double>((*cached)->stats().file_bytes) / (1024.0 * 1024.0);
  return fx;
}

Inputs make_inputs(Workload w, std::uint64_t seed, const Fixture& fixture, const Scale& scale,
                   double horizon_s) {
  Inputs in;
  in.workload = w;
  const util::Rng rng = util::Rng(seed).fork(static_cast<std::uint64_t>(w) + 100);
  const history::History& history = fixture.history;
  switch (w) {
    case Workload::kZipfHot:
      make_zipf_hot(in, rng, corpus_for(seed, history, scale), history.latest(), scale);
      break;
    case Workload::kColdFlood:
      make_cold_flood(in, rng, history.latest(), scale);
      break;
    case Workload::kSingleUdp:
      in.psld_flags = {"--udp"};
      make_single_udp(in, rng, corpus_for(seed, history, scale), history.latest(), scale);
      break;
    case Workload::kTimeTravel:
      make_time_travel(in, rng, corpus_for(seed, history, scale), history, scale);
      break;
    case Workload::kMixedRw:
      make_mixed_rw(in, rng, corpus_for(seed, history, scale), history, scale, horizon_s);
      break;
  }
  return in;
}

std::vector<Request> match_pool(const List& list, std::span<const std::string_view> hosts,
                                std::size_t per_request, std::size_t max_requests) {
  std::vector<Request> pool;
  for (std::size_t i = 0; i + per_request <= hosts.size() && pool.size() < max_requests;
       i += per_request) {
    pool.push_back(match_request(list, hosts.subspan(i, per_request)));
  }
  return pool;
}

std::vector<Lane> closed_lanes(const std::vector<Request>& pool, std::size_t conns,
                               std::size_t depth) {
  std::vector<Lane> lanes;
  for (std::size_t c = 0; c < conns; ++c) {
    lanes.push_back({[&pool, cursor = c * pool.size() / conns](double) mutable {
                       return &pool[cursor++ % pool.size()];
                     },
                     depth, 0.0});
  }
  return lanes;
}

std::vector<Lane> lanes_of(const Inputs& in) {
  std::vector<Lane> lanes;
  switch (in.workload) {
    case Workload::kZipfHot:
    case Workload::kColdFlood:
      return closed_lanes(in.pool, 4, 4);
    case Workload::kTimeTravel:
      return closed_lanes(in.pool, 4, 2);
    case Workload::kMixedRw: {
      for (std::size_t c = 0; c < 2; ++c) {
        lanes.push_back({[&buckets = in.buckets, cursor = c](double elapsed) mutable {
                           const auto b = std::min(static_cast<std::size_t>(elapsed),
                                                   buckets.size() - 1);
                           return &buckets[b][cursor++ % buckets[b].size()];
                         },
                         4, 0.0});
      }
      const std::size_t ingests = in.side_pool.size() - 3;
      lanes.push_back(
          {[&pool = in.side_pool, ingests, cursor = std::size_t{0}](double) mutable {
             return &pool[cursor++ % ingests];
           },
           2, 0.0});
      // Ticks every 250 ms: a reload on even ticks (previous, newest, ...),
      // a census on every fourth.
      lanes.push_back({[&pool = in.side_pool, ingests, tick = std::size_t{0}](double) mutable {
                         const std::size_t k = tick++;
                         if (k % 2 == 0) return &pool[ingests + (k / 2) % 2];
                         if (k % 4 == 1) return &pool[ingests + 2];
                         return static_cast<const Request*>(nullptr);
                       },
                       1, 0.25});
      break;
    }
    case Workload::kSingleUdp:
      break;
  }
  return lanes;
}

}  // namespace psl::bench::layers
