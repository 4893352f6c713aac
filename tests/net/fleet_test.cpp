// psld --shards N as the net layer builds it: N Server loops on one
// SO_REUSEPORT port over one Engine answer like one server. A reload,
// whichever loop or thread makes it, reaches every connection on every
// loop; pushes reach subscribers on every loop, and shutting one loop down
// leaves the others' pushes armed. (The census across loops is checked in
// analytics_wire_test.cpp; the TSan CI job runs both via
// `ctest -R '^(Serve|Net)'`.)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet.hpp"
#include "psl/net/client.hpp"
#include "psl/net/server.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"

namespace psl::net {
namespace {

using test_support::Fleet;

List parse_list(const std::string& text) {
  auto parsed = List::parse(text);
  EXPECT_TRUE(parsed.ok());
  return *std::move(parsed);
}

/// Two lists that answer differently for shop1.myshopify.com.
List list_a() { return parse_list("com\nuk\nco.uk\ngithub.io\n"); }
List list_b() { return parse_list("com\nuk\nco.uk\ngithub.io\nmyshopify.com\n"); }

snapshot::Snapshot snap_of(const List& list) {
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  return snapshot::Snapshot{CompiledMatcher(list), meta};
}

std::vector<std::uint8_t> snapshot_bytes(const List& list) {
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  const std::string s = snapshot::serialize(CompiledMatcher(list), meta);
  return {s.begin(), s.end()};
}

/// Every client reads `generation` (with `rules` rules) from stats and
/// answers `domain` for shop1.myshopify.com.
void expect_one_answer(std::vector<Client>& clients, std::uint64_t generation,
                       std::uint64_t rules, const std::string& domain) {
  for (Client& client : clients) {
    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_EQ(stats->generation, generation);
    EXPECT_EQ(stats->rule_count, rules);
    const auto answer = client.registrable_domains({"shop1.myshopify.com"});
    ASSERT_TRUE(answer.ok()) << answer.error().message;
    EXPECT_EQ((*answer)[0], domain);
  }
}

/// Ten connections opened now; the kernel spreads them over the loops.
std::vector<Client> fresh_clients(std::uint16_t port) {
  std::vector<Client> clients;
  for (int i = 0; i < 10; ++i) {
    auto client = Client::connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok());
    if (client.ok()) clients.push_back(*std::move(client));
  }
  return clients;
}

/// Spin (bounded) until `client` has been pushed `generation`.
bool pushed(Client& client, std::uint64_t generation) {
  for (int waited = 0; waited < 5000; waited += 5) {
    const auto drained = client.poll_pushes();
    if (!drained.ok()) return false;
    if (client.last_pushed_generation() == generation) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(NetFleetTest, ReloadReachesEveryConnectionOnEveryLoop) {
  serve::Engine engine(snap_of(list_a()), {.threads = 2});
  Fleet fleet(engine);
  std::vector<Client> before = fleet.clients_on_every_loop(2);
  expect_one_answer(before, 1, 4, "myshopify.com");

  // A wire reload lands on whichever loop took that connection; every
  // connection, opened before it or after, must see its generation.
  const auto swapped = before.front().reload(snapshot_bytes(list_b()));
  ASSERT_TRUE(swapped.ok()) << swapped.error().message;
  EXPECT_EQ(*swapped, 2u);
  expect_one_answer(before, 2, 5, "shop1.myshopify.com");
  std::vector<Client> after = fresh_clients(fleet.port());
  expect_one_answer(after, 2, 5, "shop1.myshopify.com");

  // A reload from outside the loops (psld's SIGHUP) does the same.
  EXPECT_EQ(engine.reload_list(list_a()), 3u);
  expect_one_answer(before, 3, 4, "myshopify.com");
  expect_one_answer(after, 3, 4, "myshopify.com");
  std::vector<Client> last = fresh_clients(fleet.port());
  expect_one_answer(last, 3, 4, "myshopify.com");
}

TEST(NetFleetTest, PushesReachSubscribersOnEveryLoop) {
  serve::Engine engine(snap_of(list_a()), {.threads = 2});
  Fleet fleet(engine);
  std::vector<Client> subscribers = fleet.clients_on_every_loop(1);
  for (Client& client : subscribers) {
    const auto subscribed = client.subscribe();
    ASSERT_TRUE(subscribed.ok()) << subscribed.error().message;
    EXPECT_EQ(*subscribed, 1u);
  }

  EXPECT_EQ(engine.reload_list(list_b()), 2u);
  for (Client& client : subscribers) EXPECT_TRUE(pushed(client, 2));

  // Shutting one loop down removes its listener alone: a subscriber on the
  // surviving loop is still pushed.
  fleet.loop(0).shutdown();
  auto survivor = Client::connect("127.0.0.1", fleet.port());
  ASSERT_TRUE(survivor.ok()) << survivor.error().message;
  ASSERT_TRUE(survivor->subscribe().ok());
  EXPECT_EQ(engine.reload_list(list_a()), 3u);
  EXPECT_TRUE(pushed(*survivor, 3));
}

}  // namespace
}  // namespace psl::net
