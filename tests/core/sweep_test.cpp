#include "psl/core/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "psl/archive/csv.hpp"
#include "psl/history/timeline.hpp"
#include "psl/obs/metrics.hpp"

namespace psl::harm {
namespace {

const history::History& hist() {
  static const history::History h = history::generate_history(history::TimelineSpec::tiny());
  return h;
}

const archive::Corpus& corpus() {
  static const archive::Corpus c =
      archive::generate_corpus(archive::CorpusSpec::tiny(), hist());
  return c;
}

const Sweeper& sweeper() {
  static const Sweeper s(hist(), corpus());
  return s;
}

TEST(SweeperTest, LatestVersionHasZeroDivergence) {
  const VersionMetrics m = sweeper().evaluate(hist().version_count() - 1);
  EXPECT_EQ(m.divergent_hosts, 0u);
}

TEST(SweeperTest, FirstVersionDivergesMost) {
  const VersionMetrics first = sweeper().evaluate(0);
  const VersionMetrics mid = sweeper().evaluate(hist().version_count() / 2);
  EXPECT_GT(first.divergent_hosts, 0u);
  EXPECT_GE(first.divergent_hosts, mid.divergent_hosts);
}

TEST(SweeperTest, SiteCountGrowsOverTime) {
  // Fig. 5's core claim: newer lists form more sites over the same corpus.
  const VersionMetrics first = sweeper().evaluate(0);
  const VersionMetrics last = sweeper().evaluate(hist().version_count() - 1);
  EXPECT_GT(last.site_count, first.site_count);
  // And sites get smaller on average as they get more numerous.
  EXPECT_LT(last.mean_hosts_per_site, first.mean_hosts_per_site);
}

TEST(SweeperTest, MetricsCarryVersionMetadata) {
  const std::size_t idx = hist().version_count() / 2;
  const VersionMetrics m = sweeper().evaluate(idx);
  EXPECT_EQ(m.version_index, idx);
  EXPECT_EQ(m.date, hist().version_date(idx));
  EXPECT_EQ(m.rule_count, hist().rule_count(idx));
  EXPECT_GT(m.site_count, 0u);
  EXPECT_GT(m.third_party_requests, 0u);
}

TEST(SweeperTest, ThirdPartyCountBoundedByRequests) {
  const VersionMetrics m = sweeper().evaluate(0);
  EXPECT_LE(m.third_party_requests, corpus().request_count());
  EXPECT_GT(m.third_party_requests, 0u);
}

TEST(SweeperTest, SweepCoversEndpointsInOrder) {
  const auto series = sweeper().sweep(7);
  ASSERT_GE(series.size(), 2u);
  EXPECT_EQ(series.front().version_index, 0u);
  EXPECT_EQ(series.back().version_index, hist().version_count() - 1);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series[i - 1].version_index, series[i].version_index);
    EXPECT_LT(series[i - 1].date, series[i].date);
  }
}

TEST(SweeperTest, DivergenceIsMonotoneDecreasingOverVersions) {
  // Fig. 7: older lists put more hostnames in the wrong site. Allow tiny
  // local non-monotonicity from rule removals, but require the big picture.
  const auto series = sweeper().sweep(10);
  EXPECT_GT(series.front().divergent_hosts, series.back().divergent_hosts);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i].divergent_hosts,
              series[i - 1].divergent_hosts + corpus().unique_host_count() / 50);
  }
}

TEST(SweeperTest, DivergenceAtDateMatchesVersionEvaluation) {
  const std::size_t idx = hist().version_count() / 2;
  const util::Date date = hist().version_date(idx);
  EXPECT_EQ(sweeper().divergence_at(date), sweeper().evaluate(idx).divergent_hosts);
}

TEST(SweeperTest, EvaluateListMatchesSnapshotEvaluation) {
  const std::size_t idx = hist().version_count() / 3;
  const List snapshot = hist().snapshot(idx);
  const VersionMetrics via_list = sweeper().evaluate_list(snapshot);
  const VersionMetrics via_index = sweeper().evaluate(idx);
  EXPECT_EQ(via_list.site_count, via_index.site_count);
  EXPECT_EQ(via_list.third_party_requests, via_index.third_party_requests);
  EXPECT_EQ(via_list.divergent_hosts, via_index.divergent_hosts);
}

TEST(SweeperTest, EmptyListFormsCoarsestBoundaries) {
  const VersionMetrics m = sweeper().evaluate_list(List{});
  const VersionMetrics latest = sweeper().evaluate(hist().version_count() - 1);
  EXPECT_LT(m.site_count, latest.site_count);
}

TEST(SweeperTest, LatestAssignmentCoversAllHosts) {
  EXPECT_EQ(sweeper().latest_assignment().site_ids.size(), corpus().unique_host_count());
}

// --- execution strategies: every path must be bit-identical -----------------

void expect_identical_series(const std::vector<VersionMetrics>& a,
                             const std::vector<VersionMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].version_index, b[i].version_index) << i;
    EXPECT_EQ(a[i].date, b[i].date) << i;
    EXPECT_EQ(a[i].rule_count, b[i].rule_count) << i;
    EXPECT_EQ(a[i].site_count, b[i].site_count) << i;
    EXPECT_EQ(a[i].mean_hosts_per_site, b[i].mean_hosts_per_site) << i;  // exact
    EXPECT_EQ(a[i].third_party_requests, b[i].third_party_requests) << i;
    EXPECT_EQ(a[i].divergent_hosts, b[i].divergent_hosts) << i;
  }
}

/// The seed reference for a sweep: each sampled version's metrics computed
/// here from the reversed-label trie (List) alone, with no Sweeper code.
std::vector<VersionMetrics> seed_trie_series(std::size_t max_points) {
  const auto& hosts = corpus().hostnames();
  const SiteAssignment latest = assign_sites(hist().latest(), hosts);
  std::vector<VersionMetrics> series;
  for (const std::size_t v : hist().sampled_versions(max_points)) {
    const List list = hist().snapshot(v);
    const SiteAssignment assignment = assign_sites(list, hosts);
    const SiteStats stats = site_stats(assignment);
    VersionMetrics m;
    m.version_index = v;
    m.date = hist().version_date(v);
    m.rule_count = list.rule_count();
    m.site_count = stats.site_count;
    m.mean_hosts_per_site = stats.mean_hosts_per_site;
    for (const archive::Request& r : corpus().requests()) {
      if (assignment.site_ids[r.page_host] != assignment.site_ids[r.resource_host]) {
        ++m.third_party_requests;
      }
    }
    m.divergent_hosts = harm::divergent_hosts(assignment, latest);
    series.push_back(m);
  }
  return series;
}

TEST(SweepStrategyTest, CompiledMatcherSweepEqualsSeedTrieSweep) {
  SweepOptions compiled;
  compiled.max_points = 9;
  expect_identical_series(seed_trie_series(9), sweeper().sweep(compiled));
}

TEST(SweepStrategyTest, ParallelSweepIsBitIdenticalToSingleThread) {
  SweepOptions single;
  single.max_points = 11;
  single.threads = 1;
  SweepOptions parallel;
  parallel.max_points = 11;
  parallel.threads = 4;
  expect_identical_series(sweeper().sweep(single), sweeper().sweep(parallel));
}

TEST(SweepStrategyTest, HardwareConcurrencyModeRuns) {
  SweepOptions options;
  options.max_points = 5;
  options.threads = 0;  // auto
  const auto series = sweeper().sweep(options);
  ASSERT_EQ(series.size(), hist().sampled_versions(5).size());
  EXPECT_EQ(series.back().divergent_hosts, 0u);
}

TEST(SweepStrategyTest, IncrementalSweepMatchesFullRecompute) {
  SweepOptions full;
  full.max_points = 11;
  SweepOptions incremental;
  incremental.max_points = 11;
  incremental.incremental = true;
  expect_identical_series(sweeper().sweep(full), sweeper().sweep(incremental));
}

// --- observability: instrumentation must never change the numbers ----------

TEST(SweepObservabilityTest, RegistryCapturesPhaseTimingsWithoutChangingResults) {
  SweepOptions plain;
  plain.max_points = 9;
  const auto baseline = sweeper().sweep(plain);

  obs::MetricsRegistry registry;
  SweepOptions observed;
  observed.max_points = 9;
  observed.threads = 2;
  observed.metrics = &registry;
  const auto instrumented = sweeper().sweep(observed);
  expect_identical_series(baseline, instrumented);

  const auto versions = static_cast<std::int64_t>(baseline.size());
  for (const char* name : {"sweep.compile_ms", "sweep.assign_ms", "sweep.metrics_ms"}) {
    EXPECT_EQ(registry.histogram(name).count(), versions) << name;
  }
  EXPECT_EQ(registry.counter("sweep.versions_evaluated").value(), versions);
  // Work-steal accounting: per-worker pulls must sum to the version total.
  std::int64_t pulled = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name.rfind("sweep.worker.", 0) == 0) pulled += value;
  }
  EXPECT_EQ(pulled, versions);
  // The root span feeds its histogram and lands in the span buffer.
  EXPECT_EQ(registry.histogram("sweep_ms").count(), 1);
  bool saw_root = false;
  for (const auto& span : registry.spans()) saw_root |= span.name == "sweep";
  EXPECT_TRUE(saw_root);
}

TEST(SweepObservabilityTest, IncrementalSweepRecordsReplayMetrics) {
  SweepOptions plain;
  plain.max_points = 9;
  obs::MetricsRegistry registry;
  SweepOptions incremental;
  incremental.max_points = 9;
  incremental.incremental = true;
  incremental.metrics = &registry;
  const auto series = sweeper().sweep(incremental);
  expect_identical_series(sweeper().sweep(plain), series);
  EXPECT_EQ(registry.histogram("sweep.replay_ms").count(), 1);
  EXPECT_EQ(registry.counter("sweep.versions_evaluated").value(),
            static_cast<std::int64_t>(series.size()));
  EXPECT_GT(registry.counter("sweep.hosts_rematched").value(), 0);
}

TEST(SweepObservabilityTest, RecoveredCorpusStillSweeps) {
  // Acceptance path: serialise the corpus, inject malformed rows, re-ingest
  // in recover mode, and run the full sweep off the partial corpus.
  std::stringstream buffer;
  archive::write_csv(corpus(), buffer);
  std::string text = buffer.str();
  const std::string header = "#hosts\n";
  text.insert(text.find(header) + header.size(), "garbage-row\nx,bad.example\n");

  obs::MetricsRegistry registry;
  archive::CsvOptions options;
  options.recover = true;
  options.metrics = &registry;
  std::stringstream in{text};
  const auto partial = archive::read_csv(in, options);
  ASSERT_TRUE(partial.ok()) << partial.error().message;
  EXPECT_EQ(partial->hostnames(), corpus().hostnames());
  EXPECT_EQ(partial->request_count(), corpus().request_count());

  const auto diagnostics = registry.diagnostics();
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].code, "csv.bad-row");
  EXPECT_EQ(diagnostics[0].line, 2u);
  EXPECT_EQ(diagnostics[1].code, "csv.bad-number");
  EXPECT_EQ(diagnostics[1].line, 3u);
  EXPECT_EQ(registry.counter("csv.rows_skipped").value(), 2);

  const Sweeper partial_sweeper(hist(), *partial);
  SweepOptions sweep_options;
  sweep_options.max_points = 5;
  sweep_options.metrics = &registry;
  const auto series = partial_sweeper.sweep(sweep_options);
  ASSERT_EQ(series.size(), hist().sampled_versions(5).size());
  EXPECT_EQ(series.back().divergent_hosts, 0u);
}

TEST(SweepStrategyTest, SiteAssignerReusedAcrossVersionsMatchesOneShot) {
  SiteAssigner assigner(corpus().hostnames());
  // Run newest-first then oldest so the scratch is visibly reused/dirty.
  const CompiledMatcher newest(hist().latest());
  const CompiledMatcher oldest(hist().snapshot(0));
  (void)assigner.assign(newest);
  const SiteAssignment& reused = assigner.assign(oldest);
  const SiteAssignment fresh = assign_sites(hist().snapshot(0), corpus().hostnames());
  ASSERT_EQ(reused.site_ids, fresh.site_ids);
  ASSERT_EQ(reused.site_keys, fresh.site_keys);
  EXPECT_EQ(reused.site_count, fresh.site_count);
}

}  // namespace
}  // namespace psl::harm
