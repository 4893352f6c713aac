#include "psl/core/sweep.hpp"

#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "psl/core/incremental.hpp"
#include "psl/obs/span.hpp"

namespace psl::harm {

Sweeper::Sweeper(const history::History& history, const archive::Corpus& corpus)
    : history_(history),
      corpus_(corpus),
      latest_(assign_sites(CompiledMatcher(history.latest()), corpus.hostnames())) {}

VersionMetrics Sweeper::metrics_for(const SiteAssignment& assignment,
                                    std::size_t rule_count) const {
  VersionMetrics m;
  m.rule_count = rule_count;

  const SiteStats stats = site_stats(assignment);
  m.site_count = stats.site_count;
  m.mean_hosts_per_site = stats.mean_hosts_per_site;

  // Fig. 6: a request is third-party when the resource host is not
  // same-site with the page host under this version's boundaries.
  std::size_t third_party = 0;
  for (const archive::Request& r : corpus_.requests()) {
    if (assignment.site_ids[r.page_host] != assignment.site_ids[r.resource_host]) {
      ++third_party;
    }
  }
  m.third_party_requests = third_party;

  // Fig. 7: hosts grouped differently than under the newest list.
  m.divergent_hosts = harm::divergent_hosts(assignment, latest_);
  return m;
}

VersionMetrics Sweeper::evaluate_list(const List& list) const {
  // One-off evaluation: compiling first still wins — the arena build is a
  // few ms, the ~100k matches it accelerates dominate.
  const SiteAssignment assignment = assign_sites(CompiledMatcher(list), corpus_.hostnames());
  return metrics_for(assignment, list.rule_count());
}

VersionMetrics Sweeper::evaluate_version(std::size_t version_index, SiteAssigner& scratch,
                                         const PhaseSinks& sinks) const {
  // Phase 1 — compile: materialise the version's list (delta replay inside
  // History) and freeze it into the arena matcher.
  std::size_t rule_count = 0;
  std::optional<CompiledMatcher> matcher;
  {
    const obs::Timer timer(sinks.compile_ms);
    const List snapshot = history_.snapshot(version_index);
    rule_count = snapshot.rule_count();
    matcher.emplace(snapshot);
  }

  // Phase 2 — assign: one match per unique hostname.
  const SiteAssignment* assignment = nullptr;
  {
    const obs::Timer timer(sinks.assign_ms);
    assignment = &scratch.assign(*matcher);
  }

  // Phase 3 — metrics: per-request third-party flags + divergence.
  const obs::Timer timer(sinks.metrics_ms);
  VersionMetrics m = metrics_for(*assignment, rule_count);
  m.version_index = version_index;
  m.date = history_.version_date(version_index);
  return m;
}

VersionMetrics Sweeper::evaluate(std::size_t version_index) const {
  VersionMetrics m = evaluate_list(history_.snapshot(version_index));
  m.version_index = version_index;
  m.date = history_.version_date(version_index);
  return m;
}

std::vector<VersionMetrics> Sweeper::sweep(std::size_t max_points) const {
  SweepOptions options;
  options.max_points = max_points;
  return sweep(options);
}

std::vector<VersionMetrics> Sweeper::sweep(const SweepOptions& options) const {
  obs::MetricsRegistry* registry = options.metrics;
  const obs::ScopedSpan sweep_span(registry, "sweep");
  const std::vector<std::size_t> sampled = history_.sampled_versions(options.max_points);
  std::vector<VersionMetrics> out(sampled.size());
  if (sampled.empty()) return out;

  PhaseSinks sinks;
  if (registry) {
    sinks.compile_ms = &registry->histogram("sweep.compile_ms");
    sinks.assign_ms = &registry->histogram("sweep.assign_ms");
    sinks.metrics_ms = &registry->histogram("sweep.metrics_ms");
    registry->gauge("sweep.sampled_versions").set(static_cast<double>(sampled.size()));
  }

  if (options.incremental) {
    // The span's histogram ("sweep.replay_ms") is the replay-phase timing.
    const obs::ScopedSpan replay_span(registry, "sweep.replay");
    IncrementalSweeper incremental(history_, corpus_);
    out = incremental.sweep_versions(sampled);
    if (registry) {
      registry->counter("sweep.versions_evaluated").add(static_cast<std::int64_t>(out.size()));
      registry->counter("sweep.hosts_rematched")
          .add(static_cast<std::int64_t>(incremental.hosts_rematched()));
    }
    return out;
  }

  unsigned threads = options.threads != 0 ? options.threads
                                          : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, sampled.size()));
  if (registry) {
    registry->gauge("sweep.threads").set(static_cast<double>(threads));
    registry->counter("sweep.versions_evaluated").add(static_cast<std::int64_t>(sampled.size()));
  }
  // Per-worker pull counts: with work-stealing these won't be equal — their
  // spread is the load-balance signal the bench tables watch.
  const auto worker_counter = [&](unsigned t) -> obs::Counter* {
    if (!registry) return nullptr;
    return &registry->counter("sweep.worker." + std::to_string(t) + ".versions");
  };

  if (threads <= 1) {
    SiteAssigner scratch(corpus_.hostnames());
    scratch.set_metrics(registry);
    obs::Counter* pulled = worker_counter(0);
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      out[i] = evaluate_version(sampled[i], scratch, sinks);
      if (pulled) pulled->add();
    }
    return out;
  }

  // Work-stealing over the sampled indices: version costs vary (early lists
  // are tiny), so a shared atomic cursor beats static partitioning. Each
  // result lands in its own slot — the output is identical no matter how
  // the scheduler interleaves workers.
  std::atomic<std::size_t> next{0};
  const auto worker = [&](unsigned t) {
    SiteAssigner scratch(corpus_.hostnames());
    scratch.set_metrics(registry);
    obs::Counter* pulled = worker_counter(t);
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sampled.size()) break;
      out[i] = evaluate_version(sampled[i], scratch, sinks);
      if (pulled) pulled->add();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  return out;
}

std::size_t Sweeper::divergence_at(util::Date date) const {
  const SiteAssignment assignment =
      assign_sites(CompiledMatcher(history_.snapshot_at(date)), corpus_.hostnames());
  return harm::divergent_hosts(assignment, latest_);
}

}  // namespace psl::harm
