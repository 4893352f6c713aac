// psl::serve::Engine — RCU swap visibility, backpressure, keep-last-good
// reloads, drain-on-shutdown, and the headline concurrency contract: batched
// queries racing 100+ hot reloads always see exactly one list version per
// batch. Suites are named Serve* so the TSan CI job can select them with
// `ctest -R '^Serve'`.
#include "psl/serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "psl/obs/metrics.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/snapshot.hpp"

namespace psl::serve {
namespace {

List parse_list(const std::string& text) {
  auto parsed = List::parse(text);
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

/// Two lists that give different answers for the probe hosts below.
List list_a() { return parse_list("com\nuk\nco.uk\n"); }
List list_b() { return parse_list("com\nuk\nco.uk\nexample.com\nplatform.co.uk\n"); }

snapshot::Snapshot snap_of(const List& list) {
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  return snapshot::Snapshot{CompiledMatcher(list), meta};
}

TEST(ServeEngineTest, SingleQueries) {
  Engine engine(snap_of(list_a()), {.threads = 1});
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_EQ(engine.metadata().rule_count, 3u);
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "example.com");
  EXPECT_EQ(engine.registrable_domain("co.uk"), "");  // itself a suffix
  engine.run_inline([](const Engine::Pinned& pinned) {
    EXPECT_EQ(pinned.cache, nullptr);  // inline pins never touch a worker cache
    EXPECT_EQ(pinned.generation, 1u);
    EXPECT_TRUE(pinned.same_site("a.example.com", "b.example.com"));
    EXPECT_FALSE(pinned.same_site("one.com", "two.com"));
    const std::vector<std::string_view> hosts = {"shop.example.co.uk"};
    std::vector<MatchView> views(hosts.size());
    pinned.match_batch(hosts, views);
    EXPECT_EQ(views[0].registrable_domain, "example.co.uk");
  });
  EXPECT_EQ(engine.run_inline([](const Engine::Pinned& pinned) { return pinned.meta.rule_count; }),
            3u);
}

TEST(ServeEngineTest, BatchedQueries) {
  Engine engine(snap_of(list_a()), {.threads = 2});

  auto domains = engine.submit_registrable_domains(
      {"a.b.example.com", "x.co.uk", "co.uk", "deep.y.example.co.uk"});
  ASSERT_TRUE(domains.ok()) << domains.error().message;
  EXPECT_EQ(domains->get(),
            (std::vector<std::string>{"example.com", "x.co.uk", "", "example.co.uk"}));

  auto sites = engine.submit_same_site(
      {{"a.example.com", "b.example.com"}, {"one.com", "two.com"}, {"co.uk", "co.uk"}});
  ASSERT_TRUE(sites.ok());
  EXPECT_EQ(sites->get(), (std::vector<std::uint8_t>{1, 0, 1}));

  auto matches = engine.submit_match({"www.example.co.uk"});
  ASSERT_TRUE(matches.ok());
  const auto results = matches->get();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].registrable_domain, "example.co.uk");
}

TEST(ServeEngineTest, BackpressureRejectsWhenQueueFull) {
  obs::MetricsRegistry metrics;
  // Depth 0: every batch submit is rejected, deterministically.
  Engine engine(snap_of(list_a()), {.threads = 1, .max_queue_depth = 0, .metrics = &metrics});

  auto rejected = engine.submit_registrable_domains({"a.example.com"});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, "serve.backpressure");
  EXPECT_EQ(metrics.counter("serve.rejected").value(), 1);

  // Inline queries bypass the queue and still work.
  EXPECT_EQ(engine.registrable_domain("a.example.com"), "example.com");
}

TEST(ServeEngineTest, SwapIsVisibleAndBumpsGeneration) {
  Engine engine(snap_of(list_a()), {.threads = 1});
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "example.com");

  const std::uint64_t generation = engine.reload_list(list_b());
  EXPECT_EQ(generation, 2u);
  EXPECT_EQ(engine.generation(), 2u);
  EXPECT_EQ(engine.metadata().rule_count, 5u);
  // Under list B "example.com" is a suffix, so the eTLD+1 gains a label.
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "b.example.com");
}

TEST(ServeEngineTest, GenerationListenerFiresAfterEverySwapInOrder) {
  Engine engine(snap_of(list_a()), {.threads = 1});

  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // (generation, rule_count)
  const Engine::ListenerId first = engine.add_generation_listener(
      [&seen](std::uint64_t generation, const snapshot::Metadata& meta) {
        seen.emplace_back(generation, meta.rule_count);
      });
  // A second listener (a second server on the same engine) adds to the
  // first instead of replacing it.
  std::vector<std::uint64_t> second_seen;
  const Engine::ListenerId second = engine.add_generation_listener(
      [&second_seen](std::uint64_t generation, const snapshot::Metadata&) {
        second_seen.push_back(generation);
      });
  EXPECT_NE(first, second);

  engine.reload_list(list_b());
  engine.swap(snap_of(list_a()));
  engine.reload_list(parse_list("com\n"));

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, std::uint64_t>{2u, 5u}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, std::uint64_t>{3u, 3u}));
  EXPECT_EQ(seen[2], (std::pair<std::uint64_t, std::uint64_t>{4u, 1u}));
  EXPECT_EQ(second_seen, (std::vector<std::uint64_t>{2u, 3u, 4u}));

  // Removing one listener stops its notifications and only its own.
  engine.remove_generation_listener(first);
  engine.reload_list(list_b());
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(second_seen, (std::vector<std::uint64_t>{2u, 3u, 4u, 5u}));
  engine.remove_generation_listener(second);
  engine.remove_generation_listener(second);  // already gone: a no-op
  engine.reload_list(list_a());
  EXPECT_EQ(second_seen.size(), 4u);
}

TEST(ServeEngineTest, ReloadSnapshotKeepsLastGoodOnFailure) {
  obs::MetricsRegistry metrics;
  Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});

  const std::vector<std::uint8_t> garbage = {'P', 'S', 'L', 'X', 0, 1, 2, 3};
  auto failed = engine.reload_snapshot({garbage.data(), garbage.size()});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(engine.generation(), 1u);  // untouched
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "example.com");
  EXPECT_EQ(metrics.counter("serve.reload.failure").value(), 1);
  EXPECT_EQ(metrics.counter("serve.reload.success").value(), 0);

  // A valid snapshot swaps in.
  const List b = list_b();
  snapshot::Metadata meta;
  meta.rule_count = b.rules().size();
  const std::string bytes = snapshot::serialize(CompiledMatcher(b), meta);
  auto swapped =
      engine.reload_snapshot({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  ASSERT_TRUE(swapped.ok()) << swapped.error().message;
  EXPECT_EQ(*swapped, 2u);
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "b.example.com");
  EXPECT_EQ(metrics.counter("serve.reload.success").value(), 1);
}

TEST(ServeEngineTest, ReloadFileRoundTrip) {
  Engine engine(snap_of(list_a()), {.threads = 1});
  const std::string path = testing::TempDir() + "/psl_engine_test.psnap";

  snapshot::Metadata meta;
  meta.rule_count = list_b().rules().size();
  ASSERT_TRUE(snapshot::write_file(path, CompiledMatcher(list_b()), meta).ok());
  auto swapped = engine.reload_file(path);
  ASSERT_TRUE(swapped.ok()) << swapped.error().message;
  EXPECT_EQ(engine.metadata().rule_count, 5u);
  std::remove(path.c_str());

  EXPECT_EQ(engine.reload_file("/nonexistent/x.psnap").error().code, "snapshot.io");
  EXPECT_EQ(engine.generation(), 2u);  // keep-last-good
}

TEST(ServeEngineTest, InPlaceWritesToTheServedFileKeepLastGood) {
  // The engine serves bytes it owns: truncating the file it booted from, or
  // rewriting it in place at the same size, changes no answer, and a reload
  // of either damaged file is rejected keep-last-good.
  const std::string path = testing::TempDir() + "/psl_engine_in_place_test.psnap";
  snapshot::Metadata meta;
  meta.rule_count = list_b().rules().size();
  ASSERT_TRUE(snapshot::write_file(path, CompiledMatcher(list_b()), meta).ok());
  auto booted = snapshot::load_file(path);
  ASSERT_TRUE(booted.ok()) << booted.error().message;
  Engine engine(*std::move(booted), {.threads = 1});
  ASSERT_EQ(engine.registrable_domain("a.b.example.com"), "b.example.com");

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "b.example.com");
  auto truncated = engine.reload_file(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, "snapshot.truncated");

  for (char& c : bytes) c = static_cast<char>(~c);
  {
    std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "b.example.com");
  EXPECT_FALSE(engine.reload_file(path).ok());
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_EQ(engine.registrable_domain("a.b.example.com"), "b.example.com");
  std::remove(path.c_str());
}

TEST(ServeEngineTest, ShutdownDrainsAcceptedBatches) {
  std::vector<std::future<std::vector<std::string>>> futures;
  {
    Engine engine(snap_of(list_a()), {.threads = 1, .max_queue_depth = 128});
    for (int i = 0; i < 32; ++i) {
      auto submitted = engine.submit_registrable_domains({"a.example.com", "b.co.uk"});
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(*submitted));
    }
  }  // destructor: stop intake, drain, join
  for (auto& f : futures) {
    EXPECT_EQ(f.get(), (std::vector<std::string>{"example.com", "b.co.uk"}));
  }
}

TEST(ServeEngineTest, MetricsAreWired) {
  obs::MetricsRegistry metrics;
  {
    Engine engine(snap_of(list_a()), {.threads = 2, .metrics = &metrics});

    auto batch = engine.submit_registrable_domains({"a.example.com", "b.example.com"});
    ASSERT_TRUE(batch.ok());
    batch->get();
    engine.registrable_domain("c.example.com");
    engine.reload_list(list_b());
  }  // join workers: the batch future resolves before the worker's batch_ms
     // timer records, so read the histogram only after the pool is gone.

  EXPECT_EQ(metrics.counter("serve.batches").value(), 1);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 3);  // 2 batched + 1 inline
  EXPECT_EQ(metrics.counter("serve.reload.success").value(), 1);
  EXPECT_EQ(metrics.histogram("serve.batch_ms").count(), 1);
  EXPECT_EQ(metrics.gauge("serve.queue_depth").value(), 0.0);
}

TEST(ServeEngineTest, BatchesSeeExactlyOneVersionAcrossManyReloads) {
  // The acceptance gate: concurrent batched queries racing >= 100 hot
  // reloads, every batch internally consistent with exactly one version.
  // Probe hosts are chosen so lists A and B disagree on every single one —
  // any torn batch (mixing versions) is detected immediately.
  const std::vector<std::string> probes = {"a.b.example.com", "x.y.example.com",
                                           "deep.z.example.com", "t.platform.co.uk",
                                           "u.v.platform.co.uk"};
  const std::vector<std::string> answers_a = {"example.com", "example.com", "example.com",
                                              "platform.co.uk", "platform.co.uk"};
  const std::vector<std::string> answers_b = {"b.example.com", "y.example.com", "z.example.com",
                                              "t.platform.co.uk", "v.platform.co.uk"};

  obs::MetricsRegistry metrics;
  Engine engine(snap_of(list_a()), {.threads = 3, .max_queue_depth = 16, .metrics = &metrics});

  const List a = list_a();
  const List b = list_b();
  std::atomic<bool> done{false};
  std::atomic<int> reloads{0};

  std::thread reloader([&] {
    for (int i = 0; i < 120; ++i) {
      engine.reload_list(i % 2 == 0 ? b : a);
      reloads.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::size_t checked = 0;
  std::size_t rejected = 0;
  while (!done.load(std::memory_order_acquire) || checked == 0) {
    auto submitted = engine.submit_registrable_domains(probes);
    if (!submitted.ok()) {
      ASSERT_EQ(submitted.error().code, "serve.backpressure");
      ++rejected;
      std::this_thread::yield();
      continue;
    }
    const std::vector<std::string> got = submitted->get();
    const bool is_a = got == answers_a;
    const bool is_b = got == answers_b;
    ASSERT_TRUE(is_a || is_b) << "torn batch mixing versions at iteration " << checked;
    ++checked;
  }
  reloader.join();

  EXPECT_GE(reloads.load(), 120);
  EXPECT_EQ(engine.generation(), 1u + 120u);
  EXPECT_GT(checked, 0u);
  // Accepted + rejected submissions reconcile with the counters.
  EXPECT_EQ(metrics.counter("serve.batches").value(), static_cast<std::int64_t>(checked));
  EXPECT_EQ(metrics.counter("serve.rejected").value(), static_cast<std::int64_t>(rejected));
}

TEST(ServeEngineTest, ConcurrentMixedQueriesDuringReloads) {
  // Inline queries, batches of every type, and reloads all racing; TSan
  // (the serve CI job) is the oracle here — assertions just sanity-check.
  Engine engine(snap_of(list_a()), {.threads = 2, .max_queue_depth = 32});
  const List a = list_a();
  const List b = list_b();

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    for (int i = 0; i < 100; ++i) {
      engine.reload_list(i % 2 == 0 ? b : a);
    }
    stop.store(true, std::memory_order_release);
  });

  std::thread inliner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string rd = engine.registrable_domain("a.b.example.com");
      ASSERT_TRUE(rd == "example.com" || rd == "b.example.com") << rd;
      engine.run_inline([](const Engine::Pinned& pinned) {
        return pinned.same_site("a.example.com", "b.example.com");
      });
    }
  });

  while (!stop.load(std::memory_order_acquire)) {
    auto sites = engine.submit_same_site({{"p.co.uk", "q.co.uk"}});
    if (sites.ok()) {
      const auto got = sites->get();
      ASSERT_EQ(got.size(), 1u);
    }
    auto matches = engine.submit_match({"www.example.com"});
    if (matches.ok()) matches->get();
  }

  reloader.join();
  inliner.join();
  EXPECT_EQ(engine.generation(), 101u);
}

}  // namespace
}  // namespace psl::serve
