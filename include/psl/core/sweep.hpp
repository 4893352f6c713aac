// The per-version sweep behind Figures 5, 6 and 7: evaluate the request
// corpus under each historical list version and record how the privacy
// boundaries it induces change.
#pragma once

#include <vector>

#include "psl/archive/corpus.hpp"
#include "psl/core/site_former.hpp"
#include "psl/history/history.hpp"
#include "psl/obs/metrics.hpp"

namespace psl::harm {

struct VersionMetrics {
  std::size_t version_index = 0;
  util::Date date{0};
  std::size_t rule_count = 0;          ///< Fig. 2 companion series
  std::size_t site_count = 0;          ///< Fig. 5
  double mean_hosts_per_site = 0.0;    ///< Fig. 5 companion
  std::size_t third_party_requests = 0;///< Fig. 6
  std::size_t divergent_hosts = 0;     ///< Fig. 7 (vs. the newest version)
};

/// How a Sweeper sweep executes. All strategies produce bit-identical
/// VersionMetrics; they differ only in wall-clock cost.
struct SweepOptions {
  std::size_t max_points = 48;  ///< sampled versions (first and last included)
  /// Worker threads for the per-version recompute. 0 means
  /// std::thread::hardware_concurrency(); 1 runs inline. Workers pull
  /// version indices from a shared queue; each compiles its snapshot once
  /// and reuses a per-thread SiteAssigner scratch.
  unsigned threads = 1;
  /// Replay per-version rule deltas instead of recomputing each sampled
  /// version from scratch (IncrementalSweeper underneath): only hostnames
  /// whose suffix chain intersects the changed rules get re-matched.
  /// Single-threaded by nature; `threads` is ignored when set.
  bool incremental = false;
  /// Optional observability sink (see psl/obs). When set, sweep() records
  /// per-phase latency histograms ("sweep.compile_ms", "sweep.assign_ms",
  /// "sweep.metrics_ms", or "sweep.replay_ms" for the incremental engine),
  /// a "sweep" root span, per-worker pull counters
  /// ("sweep.worker.<t>.versions" — the work-steal balance), and the
  /// "sweep.versions_evaluated" total. Null (the default) skips all
  /// instrumentation; the metrics themselves stay bit-identical either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Evaluates corpus metrics under historical list versions. Construction
/// caches the newest version's site assignment (Fig. 7's reference).
class Sweeper {
 public:
  Sweeper(const history::History& history, const archive::Corpus& corpus);

  /// Metrics for one version.
  VersionMetrics evaluate(std::size_t version_index) const;

  /// Metrics for a list that is not part of the history (e.g. a project's
  /// embedded copy found by the scanner). version_index/date are left zero.
  VersionMetrics evaluate_list(const List& list) const;

  /// Sweep at most `max_points` versions evenly spaced across the history
  /// (first and last included).
  std::vector<VersionMetrics> sweep(std::size_t max_points) const;

  /// Sweep with an explicit execution strategy (threads / incremental).
  /// Metrics are bit-identical across strategies.
  std::vector<VersionMetrics> sweep(const SweepOptions& options) const;

  /// Fig. 7 convenience: divergence for the list in force at `date`.
  std::size_t divergence_at(util::Date date) const;

  const SiteAssignment& latest_assignment() const noexcept { return latest_; }

 private:
  /// Pre-resolved per-phase latency sinks; all-null when no registry is set.
  struct PhaseSinks {
    obs::Histogram* compile_ms = nullptr;
    obs::Histogram* assign_ms = nullptr;
    obs::Histogram* metrics_ms = nullptr;
  };

  /// Metrics common to every strategy, computed off a finished assignment.
  VersionMetrics metrics_for(const SiteAssignment& assignment, std::size_t rule_count) const;
  VersionMetrics evaluate_version(std::size_t version_index, SiteAssigner& scratch,
                                  const PhaseSinks& sinks) const;

  const history::History& history_;
  const archive::Corpus& corpus_;
  SiteAssignment latest_;
};

}  // namespace psl::harm
