// Engineering/ablation bench: PSL matching throughput.
//
// DESIGN.md ablation #1, extended for the query-acceleration stack:
// reversed-label trie (psl::List) vs. the arena-compiled matcher
// (psl::CompiledMatcher),
// single match_view vs. match_batch (a match_view loop) vs.
// batched+cached (match_batch behind a RegDomainCache, the serve-layer hot
// path) — over the full list, a realistic uniform host mix, and a
// Zipf-skewed stream. Every match benchmark also reports heap allocations
// per operation (a replaced global operator new) — match_view AND the whole
// batched path must show 0. Also measures file parsing and the construction
// cost of each matcher.
//
// Usage: bench_micro_lookup [--smoke] [google-benchmark flags]
//   --smoke   skip google-benchmark; run the fixed single-vs-batched+cached
//             Zipf comparison, write BENCH_lookup.json, and exit non-zero
//             if the batched+cached path is SLOWER than the uncached
//             single-lookup baseline (CI's bench-compare gate).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "counting_new.hpp"
#include "psl/history/timeline.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/regdomain_cache.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/zipf.hpp"

namespace {

const psl::List& full_list() {
  static const psl::history::History history =
      psl::history::generate_history(psl::history::TimelineSpec{});
  return history.latest();
}

/// Hosts of varying depth, half under real suffixes, half random.
const std::vector<std::string>& host_mix() {
  static const std::vector<std::string> hosts = [] {
    psl::util::Rng rng(7);
    psl::util::NameGen names{rng.fork(1)};
    const auto& rules = full_list().rules();
    std::vector<std::string> out;
    out.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      std::string host = names.fresh();
      if (rng.chance(0.5)) {
        const auto& rule = rules[rng.below(rules.size())];
        std::string suffix;
        for (const auto& label : rule.labels()) {
          if (!suffix.empty()) suffix.push_back('.');
          suffix += label;
        }
        host += "." + suffix;
      } else {
        host += "." + names.fresh() + (rng.chance(0.5) ? ".com" : ".net");
      }
      if (rng.chance(0.4)) host = "www." + host;
      out.push_back(std::move(host));
    }
    return out;
  }();
  return hosts;
}

/// Report heap allocations per match alongside throughput.
class AllocCounter {
 public:
  AllocCounter() : start_(psl::test_support::allocation_count()) {}
  void report(benchmark::State& state) const {
    const auto allocs = static_cast<double>(psl::test_support::allocation_count() - start_);
    state.counters["allocs/op"] =
        benchmark::Counter(allocs / static_cast<double>(state.iterations()));
  }

 private:
  std::size_t start_;
};

void BM_TrieMatch(benchmark::State& state) {
  const psl::List& list = full_list();
  const auto& hosts = host_mix();
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.match(hosts[i++ & 4095]));
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieMatch);

void BM_CompiledMatch(benchmark::State& state) {
  // The allocating Match adapter — apples-to-apples with the one above.
  const psl::CompiledMatcher matcher(full_list());
  const auto& hosts = host_mix();
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(hosts[i++ & 4095]));
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledMatch);

void BM_CompiledMatchView(benchmark::State& state) {
  // The zero-allocation hot path the sweep engine runs on. allocs/op must
  // print 0 — CI's smoke run greps for exactly that.
  const psl::CompiledMatcher matcher(full_list());
  const auto& hosts = host_mix();
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match_view(hosts[i++ & 4095]));
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledMatchView);

/// Zipf-skewed replay over the host mix (s = 1.0): the serving regime, where
/// a handful of hot hosts dominate. Views alias host_mix() strings.
const std::vector<std::string_view>& zipf_stream() {
  static const std::vector<std::string_view> stream = [] {
    const auto& hosts = host_mix();
    psl::util::Rng rng(11);
    const psl::util::ZipfSampler zipf(hosts.size(), 1.0);
    std::vector<std::string_view> out;
    out.reserve(1 << 16);
    for (std::size_t i = 0; i < (1 << 16); ++i) out.push_back(hosts[zipf.sample(rng)]);
    return out;
  }();
  return stream;
}

/// The serve-layer fast path, minus the engine plumbing: look every host up
/// in the cache, batch the misses through match_batch, insert their
/// boundaries. Returns the number of hits (for the hit-rate report). All
/// buffers are caller-owned so the loop allocates nothing.
std::size_t cached_batch_lookup(const psl::CompiledMatcher& matcher,
                                psl::serve::RegDomainCache& cache,
                                std::span<const std::string_view> hosts,
                                std::span<std::string_view> out,
                                std::vector<std::size_t>& miss_index,
                                std::vector<std::string_view>& miss_hosts,
                                std::vector<std::uint64_t>& miss_hashes,
                                std::vector<psl::MatchView>& miss_views) {
  using psl::serve::RegDomainCache;
  miss_index.clear();
  miss_hosts.clear();
  miss_hashes.clear();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    std::string_view stripped = hosts[i];
    if (!stripped.empty() && stripped.back() == '.') stripped.remove_suffix(1);
    const std::uint64_t h = RegDomainCache::hash_host(stripped);
    std::uint32_t rd_len = 0;
    if (cache.lookup(h, rd_len)) {
      out[i] = rd_len == RegDomainCache::kNoDomain
                   ? std::string_view{}
                   : stripped.substr(stripped.size() - rd_len);
      ++hits;
    } else {
      miss_index.push_back(i);
      miss_hosts.push_back(hosts[i]);
      miss_hashes.push_back(h);
    }
  }
  miss_views.resize(miss_index.size());
  matcher.match_batch(miss_hosts, miss_views);
  for (std::size_t j = 0; j < miss_index.size(); ++j) {
    const std::string_view rd = miss_views[j].registrable_domain;
    out[miss_index[j]] = rd;
    cache.insert(miss_hashes[j],
                 rd.empty() ? RegDomainCache::kNoDomain : static_cast<std::uint32_t>(rd.size()));
  }
  return hits;
}

constexpr std::size_t kBenchBatch = 64;

void BM_CompiledMatchBatch(benchmark::State& state) {
  // The batch entry point over the uniform mix. One
  // "iteration" = one batch of kBenchBatch hosts; allocs/op must print 0.
  const psl::CompiledMatcher matcher(full_list());
  const auto& hosts = host_mix();
  std::vector<std::string_view> batch(kBenchBatch);
  std::vector<psl::MatchView> views(kBenchBatch);
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBenchBatch; ++k) batch[k] = hosts[i++ & 4095];
    benchmark::DoNotOptimize(matcher.match_batch(batch, views));
  }
  allocs.report(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBenchBatch));
}
BENCHMARK(BM_CompiledMatchBatch);

void BM_CompiledMatchViewZipf(benchmark::State& state) {
  // Single-lookup baseline on the skewed stream (what the cached variants
  // below are measured against).
  const psl::CompiledMatcher matcher(full_list());
  const auto& stream = zipf_stream();
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match_view(stream[i++ & 0xFFFF]));
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledMatchViewZipf);

void BM_CompiledMatchBatchZipf(benchmark::State& state) {
  const psl::CompiledMatcher matcher(full_list());
  const auto& stream = zipf_stream();
  std::vector<std::string_view> batch(kBenchBatch);
  std::vector<psl::MatchView> views(kBenchBatch);
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBenchBatch; ++k) batch[k] = stream[i++ & 0xFFFF];
    benchmark::DoNotOptimize(matcher.match_batch(batch, views));
  }
  allocs.report(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBenchBatch));
}
BENCHMARK(BM_CompiledMatchBatchZipf);

void BM_CachedBatchZipf(benchmark::State& state) {
  // The full serve-layer fast path: RegDomainCache in front of match_batch,
  // on the skewed stream. Steady-state allocs/op must print 0 (the scratch
  // vectors reach their high-water capacity in the first iterations).
  const psl::CompiledMatcher matcher(full_list());
  const auto& stream = zipf_stream();
  psl::serve::RegDomainCache cache(16384);
  std::vector<std::string_view> batch(kBenchBatch);
  std::vector<std::string_view> domains(kBenchBatch);
  std::vector<std::size_t> miss_index;
  std::vector<std::string_view> miss_hosts;
  std::vector<std::uint64_t> miss_hashes;
  std::vector<psl::MatchView> miss_views;
  miss_index.reserve(kBenchBatch);
  miss_hosts.reserve(kBenchBatch);
  miss_hashes.reserve(kBenchBatch);
  miss_views.reserve(kBenchBatch);
  std::size_t i = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBenchBatch; ++k) batch[k] = stream[i++ & 0xFFFF];
    benchmark::DoNotOptimize(cached_batch_lookup(matcher, cache, batch, domains, miss_index,
                                                 miss_hosts, miss_hashes, miss_views));
  }
  allocs.report(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBenchBatch));
}
BENCHMARK(BM_CachedBatchZipf);

void BM_RegistrableDomain(benchmark::State& state) {
  const psl::List& list = full_list();
  const auto& hosts = host_mix();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.registrable_domain(hosts[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrableDomain);

void BM_SameSite(benchmark::State& state) {
  const psl::List& list = full_list();
  const auto& hosts = host_mix();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.same_site(hosts[i & 4095], hosts[(i + 1) & 4095]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SameSite);

void BM_ParseFullList(benchmark::State& state) {
  const std::string file = full_list().to_file();
  for (auto _ : state) {
    auto parsed = psl::List::parse(file);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * file.size()));
}
BENCHMARK(BM_ParseFullList);

void BM_BuildFromRules(benchmark::State& state) {
  const std::vector<psl::Rule> rules = full_list().rules();
  for (auto _ : state) {
    auto copy = rules;
    benchmark::DoNotOptimize(psl::List::from_rules(std::move(copy)));
  }
}
BENCHMARK(BM_BuildFromRules);

void BM_CompiledMatcherConstruction(benchmark::State& state) {
  // The price of freezing a snapshot — what each sweep worker pays once per
  // version before its ~100k zero-allocation matches.
  for (auto _ : state) {
    benchmark::DoNotOptimize(psl::CompiledMatcher(full_list()));
  }
}
BENCHMARK(BM_CompiledMatcherConstruction);

// --- smoke mode: the CI bench-compare gate ----------------------------------

/// Fixed-workload comparison of the three lookup strategies on the Zipf
/// stream. Writes BENCH_lookup.json; returns non-zero when the batched+
/// cached path fails to beat the uncached single-lookup baseline (the
/// regression CI's bench-compare step exists to catch).
int run_smoke() {
  using Clock = std::chrono::steady_clock;
  const psl::CompiledMatcher matcher(full_list());
  const auto& stream = zipf_stream();
  constexpr std::size_t kQueries = 1 << 19;  // ~0.5M lookups per strategy

  // Strategy 1: single uncached match_view (the baseline).
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kQueries; ++i) {
    benchmark::DoNotOptimize(matcher.match_view(stream[i & 0xFFFF]));
  }
  const double single_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Strategy 2: batched, no cache.
  std::vector<std::string_view> batch(kBenchBatch);
  std::vector<psl::MatchView> views(kBenchBatch);
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < kQueries; i += kBenchBatch) {
    for (std::size_t k = 0; k < kBenchBatch; ++k) batch[k] = stream[(i + k) & 0xFFFF];
    benchmark::DoNotOptimize(matcher.match_batch(batch, views));
  }
  const double batched_ms = std::chrono::duration<double, std::milli>(Clock::now() - t1).count();

  // Strategy 3: batched + cached (the serve-layer fast path), swept across
  // cache sizes so BENCH_lookup.json carries a hit-rate vs. QPS curve. The
  // headline (and the regression gate) is the largest size — the engine's
  // default per-worker cache.
  struct CachePoint {
    std::size_t slots;
    double hit_rate;
    double qps;
  };
  std::vector<CachePoint> sweep;
  std::vector<std::string_view> domains(kBenchBatch);
  std::vector<std::size_t> miss_index;
  std::vector<std::string_view> miss_hosts;
  std::vector<std::uint64_t> miss_hashes;
  std::vector<psl::MatchView> miss_views;
  for (const std::size_t slots : {std::size_t{256}, std::size_t{1024}, std::size_t{4096},
                                  std::size_t{16384}}) {
    psl::serve::RegDomainCache cache(slots);
    std::size_t hits = 0;
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < kQueries; i += kBenchBatch) {
      for (std::size_t k = 0; k < kBenchBatch; ++k) batch[k] = stream[(i + k) & 0xFFFF];
      hits += cached_batch_lookup(matcher, cache, batch, domains, miss_index, miss_hosts,
                                  miss_hashes, miss_views);
    }
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t2).count();
    sweep.push_back({slots, static_cast<double>(hits) / static_cast<double>(kQueries),
                     kQueries / (ms / 1000.0)});
  }

  const double single_qps = kQueries / (single_ms / 1000.0);
  const double batched_qps = kQueries / (batched_ms / 1000.0);
  const double cached_qps = sweep.back().qps;
  const double speedup = cached_qps / single_qps;
  const double hit_rate = sweep.back().hit_rate;

  std::cout << "=== bench_micro_lookup --smoke: Zipf stream (s=1.0), " << kQueries
            << " lookups ===\n";
  std::cout << "single match_view:   " << static_cast<std::uint64_t>(single_qps) << " qps\n";
  std::cout << "match_batch(64):     " << static_cast<std::uint64_t>(batched_qps) << " qps\n";
  for (const CachePoint& p : sweep) {
    std::cout << "batched + cached (" << p.slots << " slots): "
              << static_cast<std::uint64_t>(p.qps) << " qps (hit rate " << p.hit_rate << ")\n";
  }
  std::cout << "batched+cached vs single: " << speedup << "x\n";

  std::ofstream json("BENCH_lookup.json");
  json << "{\n";
  json << "  \"zipf_queries\": " << kQueries << ",\n";
  json << "  \"batch_size\": " << kBenchBatch << ",\n";
  json << "  \"cache_slots\": " << sweep.back().slots << ",\n";
  json << "  \"single_matchview_qps\": " << single_qps << ",\n";
  json << "  \"batched_qps\": " << batched_qps << ",\n";
  json << "  \"batched_cached_qps\": " << cached_qps << ",\n";
  json << "  \"cache_hit_rate\": " << hit_rate << ",\n";
  json << "  \"speedup_batched_cached_vs_single\": " << speedup << ",\n";
  json << "  \"cache_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    json << "    {\"slots\": " << sweep[i].slots << ", \"hit_rate\": " << sweep[i].hit_rate
         << ", \"qps\": " << sweep[i].qps << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";
  std::cout << "wrote BENCH_lookup.json\n";

  if (cached_qps < single_qps) {
    std::cout << "REGRESSION: batched+cached is slower than the single-lookup baseline\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
