// Multi-version store gate: builds a psl::store file over the synthetic
// history, proves every version answers like its own list, and measures the
// numbers the design is accountable for:
//
//   * dedup ratio — store file size as a fraction of shipping every version
//     as a standalone snapshot. The full 1,142-version corpus must come in
//     under 0.30 or the binary exits non-zero (CI treats that like a test
//     failure); --smoke runs the 96-version tiny timeline with a looser
//     0.50 bar.
//   * time-travel memory ceiling — after open, one match_at and one
//     open_version for every stored version must grow the process's
//     resident set by less than kRssCeilingMiB: the store keeps nothing per
//     version, so sweeping all of history costs no memory.
//   * time-travel query throughput — match_at lookups (resolve the version
//     in effect at a random date, then match one host) against the plain
//     current-generation matcher on the same host stream.
//
// Answer identity: for the first, middle and newest version, match_at and
// open_version answer every host of the mix exactly like that version's
// List (History::snapshot), which shares no code with the store.
//
// Results land machine-readably in BENCH_store.json, which CI archives.
//
// Usage: bench_store [--smoke] [queries]
//   --smoke   tiny 96-version timeline + relaxed dedup gate (CI Release job)
//   queries   time-travel lookups measured (default 200000)
#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/date.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Resident-set growth a sweep over every version may cost.
constexpr double kRssCeilingMiB = 1.0;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// This process's resident set in MiB (/proc/self/statm), after returning
/// freed heap to the kernel so that later growth shows.
double rss_mib() {
  ::malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

bool same_answer(const psl::Match& a, const psl::Match& b) {
  return a.public_suffix == b.public_suffix && a.registrable_domain == b.registrable_domain &&
         a.matched_explicit_rule == b.matched_explicit_rule && a.section == b.section &&
         a.rule_labels == b.rule_labels && a.prevailing_rule == b.prevailing_rule;
}

/// Host mix biased toward rules that exist somewhere in the history, so
/// time-travel answers actually vary across versions.
std::vector<std::string> host_mix(const psl::List& newest) {
  psl::util::Rng rng(23);
  psl::util::NameGen names{rng.fork(1)};
  const auto& rules = newest.rules();
  std::vector<std::string> out;
  out.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    std::string host = names.fresh();
    if (rng.chance(0.6) && !rules.empty()) {
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
    out.push_back(std::move(host));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t queries = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      queries = static_cast<std::size_t>(std::atoll(argv[i]));
    }
  }
  const double gate = smoke ? 0.50 : 0.30;

  psl::history::TimelineSpec spec;
  if (smoke) spec = psl::history::TimelineSpec::tiny();
  std::cerr << "[bench_store] generating " << (smoke ? "tiny" : "full")
            << " history...\n";
  const auto history = psl::history::generate_history(spec);
  const std::size_t versions = history.version_count();

  // Build: every version through the public Builder path, exactly what
  // `psltool store build` runs.
  const std::string path = "BENCH_store.pstore";
  double build_secs = 0;
  {
    const auto t_build = Clock::now();
    psl::store::Builder builder;
    for (std::size_t v = 0; v < versions; ++v) {
      const psl::List list = history.snapshot(v);
      psl::snapshot::Metadata meta;
      meta.source_date = history.version_date(v);
      meta.rule_count = list.rule_count();
      auto added = builder.add(psl::CompiledMatcher(list), meta);
      if (!added.ok()) {
        std::cerr << "ADD FAILED at version " << v << ": " << added.error().message << "\n";
        return 1;
      }
    }
    build_secs = secs_since(t_build);
    auto written = builder.write_file(path);
    if (!written.ok()) {
      std::cerr << "WRITE FAILED: " << written.error().message << "\n";
      return 1;
    }
  }
  const psl::List newest = history.snapshot(versions - 1);
  const std::vector<std::string> hosts = host_mix(newest);

  const auto t_open = Clock::now();
  auto opened = psl::store::StoreView::open(path);
  const double open_secs = secs_since(t_open);
  if (!opened.ok()) {
    std::cerr << "OPEN FAILED: " << opened.error().message << "\n";
    return 1;
  }
  const auto view = *opened;
  const psl::store::Stats stats = view->stats();

  // Sweep all of history once: one match_at and one open_version per
  // version. Nothing of it may stay resident.
  const double rss_before = rss_mib();
  const auto t_sweep = Clock::now();
  std::size_t sink = 0;
  for (std::size_t v = 0; v < versions; ++v) {
    const std::string_view host = hosts[v % hosts.size()];
    psl::MatchView answer;
    const auto meta = view->match_at(view->version_date(v), {&host, 1}, {&answer, 1});
    auto snap = view->open_version(v);
    if (!meta.ok() || !snap.ok()) {
      std::cerr << "SWEEP FAILED at version " << v << ": "
                << (meta.ok() ? snap.error().message : meta.error().message) << "\n";
      return 1;
    }
    sink += answer.public_suffix.size() + snap->matcher.match_view(host).public_suffix.size();
  }
  const double sweep_secs = secs_since(t_sweep);
  const double rss_growth = rss_mib() - rss_before;

  // Answer identity against the List oracle: first, middle, newest.
  const std::vector<std::string_view> host_views(hosts.begin(), hosts.end());
  std::vector<psl::MatchView> answers(hosts.size());
  for (const std::size_t v : {std::size_t{0}, versions / 2, versions - 1}) {
    const psl::List list = history.snapshot(v);
    const auto meta = view->match_at(history.version_date(v), host_views, answers);
    const auto snap = view->open_version(v);
    if (!meta.ok() || !snap.ok() || meta->rule_count != list.rule_count() ||
        snap->meta.source_date != history.version_date(v)) {
      std::cerr << "ANSWER IDENTITY FAILED at version " << v << ": metadata\n";
      return 1;
    }
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const psl::Match want = list.match(hosts[i]);
      if (!same_answer(answers[i].to_match(), want) ||
          !same_answer(snap->matcher.match(hosts[i]), want)) {
        std::cerr << "ANSWER IDENTITY FAILED at version " << v << " for " << hosts[i] << "\n";
        return 1;
      }
    }
  }

  // Time-travel lookups: random date in the stored span -> version in
  // effect -> one walk of the union arena.
  const std::int32_t first_day = history.version_date(0).days_since_epoch();
  const std::int32_t last_day = history.version_date(versions - 1).days_since_epoch();
  psl::util::Rng rng(29);
  std::vector<psl::util::Date> dates;
  dates.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    dates.push_back(psl::util::Date{static_cast<std::int32_t>(
        first_day + static_cast<std::int32_t>(
                        rng.below(static_cast<std::size_t>(last_day - first_day) + 1)))});
  }

  const auto t_tt = Clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    const std::string_view host = hosts[i % hosts.size()];
    psl::MatchView answer;
    if (!view->match_at(dates[i % dates.size()], {&host, 1}, {&answer, 1}).ok()) return 1;
    sink += answer.public_suffix.size();
  }
  const double tt_secs = secs_since(t_tt);

  // Baseline: the same host stream against the fixed newest matcher.
  const psl::CompiledMatcher current(newest);
  const auto t_cur = Clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    sink += current.match_view(hosts[i % hosts.size()]).public_suffix.size();
  }
  const double cur_secs = secs_since(t_cur);

  const double tt_qps = static_cast<double>(queries) / tt_secs;
  const double cur_qps = static_cast<double>(queries) / cur_secs;

  std::cout << "store: " << versions << " versions, " << stats.file_bytes
            << " bytes (" << 100.0 * stats.dedup_ratio() << "% of "
            << stats.standalone_bytes << " standalone), built in " << build_secs
            << "s, opened in " << open_secs * 1e3 << " ms\n";
  std::cout << "sweep: match_at + open_version over every version in " << sweep_secs
            << "s, resident set +" << rss_growth << " MiB\n";
  std::cout << "match_at " << static_cast<long long>(tt_qps)
            << " qps vs current-generation " << static_cast<long long>(cur_qps)
            << " qps (sink " << sink << ")\n";

  std::ofstream json("BENCH_store.json");
  json << "{\n";
  json << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  json << "  \"versions\": " << versions << ",\n";
  json << "  \"file_bytes\": " << stats.file_bytes << ",\n";
  json << "  \"standalone_bytes\": " << stats.standalone_bytes << ",\n";
  json << "  \"dedup_ratio\": " << stats.dedup_ratio() << ",\n";
  json << "  \"dedup_gate\": " << gate << ",\n";
  json << "  \"build_secs\": " << build_secs << ",\n";
  json << "  \"open_ms\": " << open_secs * 1e3 << ",\n";
  json << "  \"sweep_secs\": " << sweep_secs << ",\n";
  json << "  \"sweep_rss_growth_mib\": " << rss_growth << ",\n";
  json << "  \"sweep_rss_ceiling_mib\": " << kRssCeilingMiB << ",\n";
  json << "  \"queries\": " << queries << ",\n";
  json << "  \"match_at_qps\": " << tt_qps << ",\n";
  json << "  \"current_generation_qps\": " << cur_qps << ",\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";

  int status = 0;
  if (stats.dedup_ratio() >= gate) {
    std::cout << "DEDUP GATE FAILED: ratio " << stats.dedup_ratio() << " >= " << gate << "\n";
    status = 1;
  } else {
    std::cout << "dedup gate passed (" << stats.dedup_ratio() << " < " << gate << ")\n";
  }
  if (rss_growth >= kRssCeilingMiB) {
    std::cout << "MEMORY GATE FAILED: the sweep grew the resident set by " << rss_growth
              << " MiB >= " << kRssCeilingMiB << "\n";
    status = 1;
  } else {
    std::cout << "memory gate passed (+" << rss_growth << " MiB < " << kRssCeilingMiB << ")\n";
  }
  return status;
}
