// Sweep-engine ablation: execution strategies for the Figs. 5-7 per-version
// sweep (1..N worker threads over the arena-compiled matcher, and the
// delta-replay incremental engine), against a seed-trie reference series
// computed here from the reversed-label trie (List) alone.
//
// Every strategy must produce VersionMetrics bit-identical to the seed-trie
// reference — this binary exits non-zero on any disagreement, so CI can
// smoke-run it. Prints versions/sec and speedup vs. the single-threaded
// seed-trie reference, and writes the same numbers machine-readably to
// BENCH_sweep.json.
//
// Usage: bench_sweep_parallel [max_points] [max_threads]
//   max_points   versions sampled per strategy (default 48)
//   max_threads  highest thread count tried (default hardware_concurrency)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "psl/core/site_former.hpp"
#include "psl/core/sweep.hpp"
#include "psl/obs/json.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/util/strings.hpp"
#include "psl/util/table.hpp"

namespace {

struct StrategyResult {
  std::string name;
  psl::harm::SweepOptions options;
  double wall_ms = 0.0;
  std::vector<psl::harm::VersionMetrics> series;
};

/// The seed reference: each sampled version's metrics from the reversed-
/// label trie (List) alone, one thread, no Sweeper code.
std::vector<psl::harm::VersionMetrics> seed_trie_series(const psl::history::History& history,
                                                        const psl::archive::Corpus& corpus,
                                                        std::size_t max_points) {
  const auto& hosts = corpus.hostnames();
  const psl::harm::SiteAssignment latest = psl::harm::assign_sites(history.latest(), hosts);
  std::vector<psl::harm::VersionMetrics> series;
  for (const std::size_t v : history.sampled_versions(max_points)) {
    const psl::List list = history.snapshot(v);
    const psl::harm::SiteAssignment assignment = psl::harm::assign_sites(list, hosts);
    const psl::harm::SiteStats stats = psl::harm::site_stats(assignment);
    psl::harm::VersionMetrics m;
    m.version_index = v;
    m.date = history.version_date(v);
    m.rule_count = list.rule_count();
    m.site_count = stats.site_count;
    m.mean_hosts_per_site = stats.mean_hosts_per_site;
    for (const psl::archive::Request& r : corpus.requests()) {
      if (assignment.site_ids[r.page_host] != assignment.site_ids[r.resource_host]) {
        ++m.third_party_requests;
      }
    }
    m.divergent_hosts = psl::harm::divergent_hosts(assignment, latest);
    series.push_back(m);
  }
  return series;
}

bool identical(const std::vector<psl::harm::VersionMetrics>& a,
               const std::vector<psl::harm::VersionMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].version_index != b[i].version_index || a[i].site_count != b[i].site_count ||
        a[i].mean_hosts_per_site != b[i].mean_hosts_per_site ||
        a[i].third_party_requests != b[i].third_party_requests ||
        a[i].divergent_hosts != b[i].divergent_hosts) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;

  const std::size_t max_points =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : psl::bench::kSweepPoints;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned max_threads =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : hardware;
  if (max_points < 2) {
    std::cerr << "usage: bench_sweep_parallel [max_points >= 2] [max_threads >= 1]\n";
    return 2;
  }

  const auto& history = psl::bench::full_history();
  const auto& corpus = psl::bench::full_corpus();
  const psl::harm::Sweeper sweeper(history, corpus);

  std::cout << "=== Sweep engine: matcher + threading ablation ===\n";
  std::cout << "sampled versions: " << max_points << ", hardware threads: " << hardware
            << "\n\n";

  std::vector<StrategyResult> results;
  const auto add = [&](std::string name, psl::harm::SweepOptions options) {
    StrategyResult r;
    r.name = std::move(name);
    r.options = options;
    results.push_back(std::move(r));
  };

  psl::harm::SweepOptions base;
  base.max_points = max_points;

  add("trie, 1 thread (seed)", base);  // computed by seed_trie_series below
  add("compiled, 1 thread", base);
  for (unsigned t = 2; t <= max_threads; t *= 2) {
    auto o = base;
    o.threads = t;
    add("compiled, " + std::to_string(t) + " threads", o);
  }
  {
    auto o = base;
    o.incremental = true;
    add("incremental (delta replay)", o);
  }

  for (auto& r : results) {
    const auto t0 = Clock::now();
    r.series = &r == &results.front() ? seed_trie_series(history, corpus, max_points)
                                      : sweeper.sweep(r.options);
    const auto t1 = Clock::now();
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

  bool all_agree = true;
  for (const auto& r : results) {
    if (!identical(r.series, results.front().series)) {
      all_agree = false;
      std::cout << "METRIC MISMATCH: '" << r.name << "' diverges from the seed-trie reference\n";
    }
  }

  const double baseline_ms = results.front().wall_ms;
  psl::util::TextTable table({"strategy", "wall time", "versions/sec", "speedup"});
  for (const auto& r : results) {
    const double vps = static_cast<double>(r.series.size()) / (r.wall_ms / 1000.0);
    table.add_row({r.name, psl::util::fmt_double(r.wall_ms, 0) + " ms",
                   psl::util::fmt_double(vps, 1),
                   psl::util::fmt_double(baseline_ms / r.wall_ms, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nmetric agreement across all strategies: "
            << (all_agree ? "EXACT" : "MISMATCH!") << "\n";

  std::ofstream json("BENCH_sweep.json");
  json << "{\n";
  json << "  \"sampled_versions\": " << results.front().series.size() << ",\n";
  json << "  \"hardware_threads\": " << hardware << ",\n";
  json << "  \"agreement\": " << (all_agree ? "true" : "false") << ",\n";
  json << "  \"strategies\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double vps = static_cast<double>(r.series.size()) / (r.wall_ms / 1000.0);
    json << "    {\"name\": \"" << r.name << "\", \"threads\": " << r.options.threads
         << ", \"incremental\": " << (r.options.incremental ? "true" : "false")
         << ", \"wall_ms\": " << psl::util::fmt_double(r.wall_ms, 2)
         << ", \"versions_per_sec\": " << psl::util::fmt_double(vps, 2)
         << ", \"speedup_vs_seed\": " << psl::util::fmt_double(baseline_ms / r.wall_ms, 3)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";
  std::cout << "wrote BENCH_sweep.json\n";

  // --- observability rerun: per-phase metrics snapshot + overhead check ----
  // Re-run the widest parallel configuration twice — once bare, once with a
  // registry attached — to (a) bound the instrumented overhead and (b) emit
  // the per-phase latency/work-steal snapshot alongside the wall-clock table.
  psl::harm::SweepOptions obs_options = base;
  obs_options.threads = max_threads;

  const auto t_null0 = Clock::now();
  const auto null_series = sweeper.sweep(obs_options);
  const auto t_null1 = Clock::now();
  const double null_ms = std::chrono::duration<double, std::milli>(t_null1 - t_null0).count();

  psl::obs::MetricsRegistry registry;
  obs_options.metrics = &registry;
  const auto t_obs0 = Clock::now();
  const auto obs_series = sweeper.sweep(obs_options);
  const auto t_obs1 = Clock::now();
  const double obs_ms = std::chrono::duration<double, std::milli>(t_obs1 - t_obs0).count();

  if (!identical(obs_series, null_series) || !identical(obs_series, results.front().series)) {
    std::cout << "METRIC MISMATCH: instrumented sweep diverges from the baseline\n";
    all_agree = false;
  }

  const double overhead_pct = null_ms > 0.0 ? (obs_ms - null_ms) / null_ms * 100.0 : 0.0;
  std::cout << "\nobservability overhead (" << max_threads << " threads): "
            << psl::util::fmt_double(null_ms, 0) << " ms bare vs "
            << psl::util::fmt_double(obs_ms, 0) << " ms instrumented ("
            << psl::util::fmt_double(overhead_pct, 1) << "%)\n";

  registry.gauge("bench.null_wall_ms").set(null_ms);
  registry.gauge("bench.instrumented_wall_ms").set(obs_ms);
  registry.gauge("bench.overhead_pct").set(overhead_pct);
  std::ofstream metrics_json("BENCH_sweep_metrics.json");
  psl::obs::write_json(registry, metrics_json);
  std::cout << "wrote BENCH_sweep_metrics.json\n";

  return all_agree ? 0 : 1;
}
