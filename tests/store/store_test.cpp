// psl::store — answer identity of every version against its own List over
// the history corpus, corruption rejection (single-byte flips anywhere in
// the file), the epoch index, the Engine integration, and divergence()
// against the offline per-version sweep and the per-version matcher loop it
// must reproduce exactly.
#include "psl/store/store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "psl/archive/corpus.hpp"
#include "psl/history/history.hpp"
#include "psl/history/timeline.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"

namespace psl {
namespace {

const history::History& tiny_history() {
  static const history::History h = history::generate_history(history::TimelineSpec::tiny());
  return h;
}

snapshot::Metadata meta_at(const history::History& h, std::size_t v) {
  snapshot::Metadata meta;
  meta.source_date = h.version_date(v);
  meta.rule_count = h.rule_count(v);
  return meta;
}

std::string standalone_snapshot(const history::History& h, std::size_t v) {
  const List list = h.snapshot(v);
  const CompiledMatcher matcher(list);
  return snapshot::serialize(matcher, meta_at(h, v));
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Build a store over versions [0, count) of the tiny corpus; returns the
/// serialized file image plus the standalone snapshots it was fed.
std::string build_store(std::size_t count, std::vector<std::string>* standalones = nullptr) {
  const history::History& h = tiny_history();
  store::Builder builder;
  for (std::size_t v = 0; v < count; ++v) {
    std::string bytes = standalone_snapshot(h, v);
    const auto added = builder.add_snapshot(as_bytes(bytes));
    EXPECT_TRUE(added.ok()) << (added.ok() ? "" : added.error().message);
    if (standalones != nullptr) standalones->push_back(std::move(bytes));
  }
  const auto image = builder.serialize();
  EXPECT_TRUE(image.ok());
  return *image;
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
  out.close();
  return path;
}

/// Empty when two answers agree in every field, else what differs.
std::string answer_diff(const Match& got, const Match& want) {
  std::string diff;
  if (got.public_suffix != want.public_suffix) diff += " public_suffix " + got.public_suffix;
  if (got.registrable_domain != want.registrable_domain) {
    diff += " registrable_domain " + got.registrable_domain;
  }
  if (got.matched_explicit_rule != want.matched_explicit_rule) diff += " matched_explicit_rule";
  if (got.section != want.section) diff += " section";
  if (got.rule_labels != want.rule_labels) diff += " rule_labels";
  if (got.prevailing_rule != want.prevailing_rule) diff += " prevailing_rule " + got.prevailing_rule;
  return diff;
}

TEST(StoreTest, EveryVersionAnswersLikeItsList) {
  const history::History& h = tiny_history();
  const std::size_t count = h.version_count();
  const std::string path = write_temp("store_answers.pstore", build_store(count));
  const auto view = store::StoreView::open(path);
  ASSERT_TRUE(view.ok()) << view.error().message;
  ASSERT_EQ((*view)->version_count(), count);

  // The corpus hosts, plus a host at and under every rule ever scheduled.
  std::vector<std::string> hosts =
      archive::generate_corpus(archive::CorpusSpec::tiny(), h).hostnames();
  for (const history::ScheduledRule& sr : h.schedule()) {
    std::string suffix;
    for (const std::string& label : sr.rule.labels()) {
      suffix += (suffix.empty() ? "" : ".") + label;
    }
    hosts.push_back(suffix);
    hosts.push_back("tenant." + suffix);
  }
  const std::vector<std::string_view> host_views(hosts.begin(), hosts.end());
  std::vector<MatchView> answers(hosts.size());

  // The oracle is History::snapshot(v), a List: it shares no store code.
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ((*view)->version_date(v), h.version_date(v));
    EXPECT_EQ((*view)->rule_count(v), h.rule_count(v));
    const auto meta = (*view)->match_at(h.version_date(v), host_views, answers);
    ASSERT_TRUE(meta.ok()) << "version " << v << ": " << meta.error().message;
    EXPECT_EQ(meta->source_date, h.version_date(v));
    EXPECT_EQ(meta->rule_count, h.rule_count(v));
    const auto snap = (*view)->open_version(v);
    ASSERT_TRUE(snap.ok()) << "version " << v << ": " << snap.error().message;
    EXPECT_EQ(snap->meta.source_date, h.version_date(v));
    EXPECT_EQ(snap->meta.rule_count, h.rule_count(v));
    const List list = h.snapshot(v);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const Match want = list.match(hosts[i]);
      ASSERT_EQ(answer_diff(answers[i].to_match(), want), "")
          << "match_at, version " << v << ", host \"" << hosts[i] << "\"";
      ASSERT_EQ(answer_diff(snap->matcher.match(hosts[i]), want), "")
          << "open_version, version " << v << ", host \"" << hosts[i] << "\"";
    }
  }
  std::remove(path.c_str());
}

TEST(StoreTest, DedupBeatsStandaloneStorage) {
  std::vector<std::string> standalones;
  const std::string image = build_store(tiny_history().version_count(), &standalones);
  std::uint64_t total = 0;
  for (const auto& s : standalones) total += s.size();
  // The acceptance bar for the full 1,142-version corpus is < 30%; the tiny
  // corpus has proportionally fewer zero-churn versions, so hold it to 50%.
  EXPECT_LT(image.size(), total / 2)
      << "store is " << image.size() << " bytes vs " << total << " standalone";

  const std::string path = write_temp("store_dedup.pstore", image);
  const auto view = store::StoreView::open(path);
  ASSERT_TRUE(view.ok());
  const store::Stats& st = (*view)->stats();
  EXPECT_EQ(st.file_bytes, image.size());
  EXPECT_EQ(st.standalone_bytes, total);
  EXPECT_LT(st.dedup_ratio(), 0.5);
  std::remove(path.c_str());
}

TEST(StoreTest, SingleByteFlipAnywhereIsRejected) {
  // A small store (8 versions) so the whole file is scannable: EVERY byte
  // of the image is load-bearing — header, segment data, padding, tables.
  std::string image = build_store(8);
  const std::string path = testing::TempDir() + "/store_flip.pstore";
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    image[pos] = static_cast<char>(image[pos] ^ 0x20);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.close();
    const auto view = store::StoreView::open(path);
    bool rejected = !view.ok();
    if (!rejected) {
      // Open-time validation does not re-run full snapshot validation;
      // whatever it let through must die at materialization.
      for (std::size_t v = 0; v < (*view)->version_count() && !rejected; ++v) {
        rejected = !(*view)->open_version(v).ok();
      }
    }
    EXPECT_TRUE(rejected) << "flipping byte " << pos << " went undetected";
    image[pos] = static_cast<char>(image[pos] ^ 0x20);
  }
  std::remove(path.c_str());
}

TEST(StoreTest, OlderFormatIsRefusedWithARebuildHint) {
  for (const char format : {1, 2}) {
    std::string image = build_store(2);
    image[8] = format;  // the format-version field, as an older store has it
    const std::string path = write_temp("store_old.pstore", image);
    const auto view = store::StoreView::open(path);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.error().code, "store.bad-version");
    EXPECT_NE(view.error().message.find("rebuild"), std::string::npos) << view.error().message;
    std::remove(path.c_str());
  }
}

TEST(StoreTest, VersionIndexAtIsTheEpochIndex) {
  const history::History& h = tiny_history();
  const std::string path =
      write_temp("store_epoch.pstore", build_store(h.version_count()));
  const auto view = store::StoreView::open(path);
  ASSERT_TRUE(view.ok());

  // Exact dates, dates between versions, and dates past the end must agree
  // with the generator's own version_index_at across the whole corpus.
  const util::Date first = h.version_date(0);
  const util::Date last = h.version_date(h.version_count() - 1);
  for (std::int32_t d = first.days_since_epoch(); d <= last.days_since_epoch() + 30; d += 7) {
    const util::Date date{d};
    const auto got = (*view)->version_index_at(date);
    const auto want = h.version_index_at(date);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.ok()) << date.to_string();
    EXPECT_EQ(*got, *want) << date.to_string();
  }
  const util::Date before{first.days_since_epoch() - 1};
  const auto none = (*view)->version_index_at(before);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, "store.no-version");
  std::remove(path.c_str());
}

TEST(StoreTest, DivergenceMatchesTheOfflineSweep) {
  const history::History& h = tiny_history();
  const std::string path =
      write_temp("store_divergence.pstore", build_store(h.version_count()));
  const auto view = store::StoreView::open(path);
  ASSERT_TRUE(view.ok());

  // Hosts under rules that churn mid-corpus (so the answer actually flips),
  // plus a host no rule ever covers and one that IS a suffix.
  std::vector<std::string> hosts = {"never.matched.invalid", "com"};
  for (const history::ScheduledRule& sr : h.schedule()) {
    if (hosts.size() >= 10) break;
    if (sr.added <= h.version_date(0) && !sr.removed.has_value()) continue;
    std::string host = "tenant.site";
    for (const std::string& label : sr.rule.labels()) host += "." + label;
    hosts.push_back(std::move(host));
  }
  ASSERT_GT(hosts.size(), 2u);

  for (const std::string& host : hosts) {
    // Offline ground truth: List::match per version, grouped into runs —
    // exactly what the incremental sweeper computes.
    std::vector<store::DivergenceRange> want;
    for (std::size_t v = 0; v < h.version_count(); ++v) {
      const std::string rd = h.snapshot(v).match(host).registrable_domain;
      const util::Date date = h.version_date(v);
      if (want.empty() || want.back().registrable_domain != rd) {
        want.push_back(store::DivergenceRange{date, date, rd});
      } else {
        want.back().last_date = date;
      }
    }
    const auto got = (*view)->divergence(host);
    ASSERT_TRUE(got.ok()) << host;
    EXPECT_EQ(*got, want) << host;
  }
  std::remove(path.c_str());
}

/// The per-version oracle: `answer(v)` for every version, grouped into runs
/// of equal registrable domains exactly as divergence() groups them.
template <typename Answer>
std::vector<store::DivergenceRange> runs_by_version(const std::vector<util::Date>& dates,
                                                    const Answer& answer) {
  std::vector<store::DivergenceRange> out;
  for (std::size_t v = 0; v < dates.size(); ++v) {
    const std::string rd = answer(v);
    if (out.empty() || out.back().registrable_domain != rd) {
      out.push_back(store::DivergenceRange{dates[v], dates[v], rd});
    } else {
      out.back().last_date = dates[v];
    }
  }
  return out;
}

/// divergence() for every host equals two oracles: the store's own
/// materialized matcher per version (the loop divergence() replaced), and
/// History::snapshot(v).
void expect_divergence_matches_oracles(const history::History& h,
                                       const std::vector<std::string>& hosts) {
  store::Builder builder;
  std::vector<List> lists;
  for (std::size_t v = 0; v < h.version_count(); ++v) {
    lists.push_back(h.snapshot(v));
    ASSERT_TRUE(builder.add(CompiledMatcher(lists.back()), meta_at(h, v)).ok());
  }
  const auto image = builder.serialize();
  ASSERT_TRUE(image.ok());
  // Two tests call this helper, and ctest -j may run them at once: each
  // gets its own file, named for the running test and this process.
  const std::string path =
      write_temp(std::string(testing::UnitTest::GetInstance()->current_test_info()->name()) +
                     "." + std::to_string(::getpid()) + ".pstore",
                 *image);
  const auto view = store::StoreView::open(path);
  ASSERT_TRUE(view.ok()) << view.error().message;

  for (const std::string& host : hosts) {
    const auto got = (*view)->divergence(host);
    ASSERT_TRUE(got.ok()) << host;
    const auto by_matcher = runs_by_version(h.version_dates(), [&](std::size_t v) {
      const auto snap = (*view)->open_version(v);
      EXPECT_TRUE(snap.ok());
      return std::string(snap->matcher.match_view(host).registrable_domain);
    });
    const auto by_history = runs_by_version(h.version_dates(), [&](std::size_t v) {
      return lists[v].match(host).registrable_domain;
    });
    EXPECT_EQ(*got, by_matcher) << "host \"" << host << "\"";
    EXPECT_EQ(*got, by_history) << "host \"" << host << "\"";
  }
  std::remove(path.c_str());
}

/// Hosts that exercise degenerate input beside any rule set.
std::vector<std::string> edge_hosts() {
  return {"", ".", "com", "a..b.com", "tenant.example.com.", "TENANT.Example.COM",
          "never.matched.invalid"};
}

TEST(StoreTest, DivergenceEqualsPerVersionOraclesOverTheCorpus) {
  const history::History& h = tiny_history();
  std::vector<std::string> hosts = edge_hosts();
  for (const history::ScheduledRule& sr : h.schedule()) {
    std::string suffix;
    for (const std::string& label : sr.rule.labels()) {
      suffix += (suffix.empty() ? "" : ".") + label;
    }
    hosts.push_back(suffix);
    hosts.push_back("tenant." + suffix);
    hosts.push_back("www.tenant." + suffix);
  }
  expect_divergence_matches_oracles(h, hosts);
}

Rule rule(const char* text, Section section = Section::kIcann) {
  auto parsed = Rule::parse(text, section);
  EXPECT_TRUE(parsed.ok()) << text;
  return *parsed;
}

TEST(StoreTest, DivergenceFollowsRulesThatComeGoAndChange) {
  std::vector<util::Date> dates;
  for (std::int32_t d = 0; d < 8; ++d) dates.push_back(util::Date{14000 + 30 * d});
  const auto at = [&](std::size_t v) { return dates[v]; };
  std::vector<history::ScheduledRule> schedule = {
      {rule("com"), at(0), std::nullopt},
      {rule("ck"), at(0), std::nullopt},
      // Removed, then re-added: the answer goes A -> B -> A.
      {rule("foo.com"), at(0), at(2)},
      {rule("foo.com"), at(5), std::nullopt},
      // The same rule changes section: new change points, same answers.
      {rule("blog.com"), at(0), at(2)},
      {rule("blog.com", Section::kPrivate), at(2), std::nullopt},
      // A wildcard and its exception arrive in different versions, and the
      // wildcard leaves before the exception does.
      {rule("*.ck"), at(2), at(6)},
      {rule("!www.ck"), at(4), std::nullopt},
  };
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const auto& a, const auto& b) { return a.added < b.added; });
  const history::History h(dates, schedule);
  std::vector<std::string> hosts = edge_hosts();
  for (const char* host : {"x.foo.com", "foo.com", "a.b.foo.com", "x.blog.com", "blog.com",
                           "www.ck", "a.www.ck", "shop.ck", "a.shop.ck", "ck", "x.ck."}) {
    hosts.emplace_back(host);
  }
  // The history really does take x.foo.com through A -> B -> A.
  const auto flips = runs_by_version(dates, [&](std::size_t v) {
    return h.snapshot(v).match("x.foo.com").registrable_domain;
  });
  ASSERT_EQ(flips.size(), 3u);
  EXPECT_EQ(flips.front().registrable_domain, flips.back().registrable_domain);
  expect_divergence_matches_oracles(h, hosts);
}

TEST(StoreTest, BuilderRejectsOutOfOrderAndEmpty) {
  const history::History& h = tiny_history();
  store::Builder builder;
  const auto empty = builder.serialize();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, "store.empty");

  const std::string v1 = standalone_snapshot(h, 1);
  const std::string v0 = standalone_snapshot(h, 0);
  ASSERT_TRUE(builder.add_snapshot(as_bytes(v1)).ok());
  const auto backwards = builder.add_snapshot(as_bytes(v0));
  ASSERT_FALSE(backwards.ok());
  EXPECT_EQ(backwards.error().code, "store.out-of-order");
  const auto duplicate = builder.add_snapshot(as_bytes(v1));
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code, "store.out-of-order");

  const auto garbage = builder.add_snapshot(as_bytes(std::string("not a snapshot")));
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(builder.version_count(), 1u);
}

TEST(StoreTest, EngineOpenStorePinAndTimeTravel) {
  const history::History& h = tiny_history();
  const std::string path =
      write_temp("store_engine.pstore", build_store(h.version_count()));

  // Engine boots on version 0, then adopts the store (serves the newest).
  const List initial = h.snapshot(0);
  serve::Engine engine(snapshot::Snapshot{CompiledMatcher(initial), meta_at(h, 0)});
  EXPECT_FALSE(engine.store_view());
  const std::string_view host = "tenant.example.com";
  MatchView answer;
  const auto none = engine.match_at(h.version_date(0), {&host, 1}, {&answer, 1});
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, "store.none");

  const auto gen = engine.open_store(path);
  ASSERT_TRUE(gen.ok()) << gen.error().message;
  EXPECT_EQ(engine.generation(), *gen);
  EXPECT_EQ(engine.metadata().source_date, h.version_date(h.version_count() - 1));
  ASSERT_TRUE(engine.store_view());

  // match_at answers from the store without touching the serving state.
  const auto at = engine.match_at(h.version_date(5), {&host, 1}, {&answer, 1});
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->source_date, h.version_date(5));
  EXPECT_EQ(answer.to_match().registrable_domain,
            h.snapshot(5).match(host).registrable_domain);
  EXPECT_EQ(engine.metadata().source_date, h.version_date(h.version_count() - 1));

  // Engine::divergence delegates to the adopted store.
  const auto div = engine.divergence(host);
  ASSERT_TRUE(div.ok());
  EXPECT_FALSE(div->empty());

  // Keep-last-good: opening a nonexistent store leaves everything serving.
  const auto missing = engine.open_store(testing::TempDir() + "/no_such.pstore");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(engine.metadata().source_date, h.version_date(h.version_count() - 1));
  ASSERT_TRUE(engine.store_view());
  std::remove(path.c_str());
}

TEST(StoreTest, SnapshotsOutliveTheStoreView) {
  const history::History& h = tiny_history();
  const std::string path = write_temp("store_outlive.pstore", build_store(4));
  snapshot::Snapshot snap{CompiledMatcher(h.snapshot(0)), meta_at(h, 0)};
  {
    const auto view = store::StoreView::open(path);
    ASSERT_TRUE(view.ok());
    auto got = (*view)->open_version(3);
    ASSERT_TRUE(got.ok());
    snap = std::move(*got);
  }
  // The view is gone; the snapshot's retain chain must keep the view's
  // buffer alive. Under ASan a stale span faults loudly here.
  const List list = h.snapshot(3);
  const CompiledMatcher fresh(list);
  for (const std::string host : {"tenant.example.com", "a.b.co.uk", "x.github.io"}) {
    EXPECT_EQ(snap.matcher.match(host).registrable_domain,
              fresh.match(host).registrable_domain);
  }
  std::remove(path.c_str());
}

TEST(StoreTest, InPlaceWritesCannotDisturbAnOpenView) {
  // A view owns the bytes it read: truncating its file, then rewriting it in
  // place at the same size, changes no match_at or divergence answer, and
  // reopening either damaged file is refused.
  const history::History& h = tiny_history();
  const std::string image = build_store(h.version_count());
  const std::string path = write_temp("store_in_place.pstore", image);
  const auto view = store::StoreView::open(path);
  ASSERT_TRUE(view.ok()) << view.error().message;

  const std::vector<std::string_view> hosts = {"tenant.example.com", "a.b.co.uk",
                                               "x.github.io", "www.tenant.example.com"};
  const std::vector<util::Date> dates = {h.version_date(0),
                                         h.version_date(h.version_count() / 2),
                                         h.version_date(h.version_count() - 1)};
  const auto answers = [&] {
    std::vector<std::string> out;
    for (const util::Date date : dates) {
      std::vector<MatchView> got(hosts.size());
      EXPECT_TRUE((*view)->match_at(date, hosts, got).ok());
      for (const MatchView& m : got) out.emplace_back(m.registrable_domain);
    }
    for (const std::string_view host : hosts) {
      const auto ranges = (*view)->divergence(host);
      EXPECT_TRUE(ranges.ok());
      for (const store::DivergenceRange& r : *ranges) {
        out.push_back(r.first_date.to_string() + ".." + r.last_date.to_string() + " " +
                      r.registrable_domain);
      }
    }
    return out;
  };
  const std::vector<std::string> before = answers();

  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  EXPECT_EQ(answers(), before);
  const auto truncated = store::StoreView::open(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, "store.truncated");

  std::string flipped = image;
  for (char& c : flipped) c = static_cast<char>(~c);
  {
    std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  EXPECT_EQ(answers(), before);
  EXPECT_FALSE(store::StoreView::open(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psl
