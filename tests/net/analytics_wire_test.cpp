// The analytics wire surface over real loopback sockets: ingest_batch /
// census_query round trips, the "analytics.none" contract, malformed
// payloads, the stats analytics block — and the cross-check the subsystem
// exists for: a corpus replayed over the wire must land on EXACTLY the
// aggregates the offline core::Sweeper computes for the same corpus, with
// every sketch estimate inside its documented bracket. The reload-under-
// ingest suite runs under the TSan CI job (`ctest -R '^(Serve|Net)'`).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fleet.hpp"
#include "psl/analytics/census.hpp"
#include "psl/archive/corpus.hpp"
#include "psl/core/sweep.hpp"
#include "psl/history/timeline.hpp"
#include "psl/net/client.hpp"
#include "psl/net/frame.hpp"
#include "psl/net/server.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/url/host.hpp"

namespace psl::net {
namespace {

const history::History& shared_history() {
  static const history::History h =
      history::generate_history(history::TimelineSpec{});
  return h;
}

snapshot::Snapshot latest_snapshot() {
  const List& list = shared_history().latest();
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  return snapshot::Snapshot{CompiledMatcher(list), meta};
}

serve::EngineOptions analytics_options(std::size_t threads = 2) {
  serve::EngineOptions options;
  options.threads = threads;
  options.census_factory = analytics::census_factory(analytics::CensusOptions{});
  return options;
}

Client connect_or_die(std::uint16_t port, ClientOptions options = {}) {
  auto client = Client::connect("127.0.0.1", port, options);
  EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error().message);
  if (!client.ok()) std::abort();
  return *std::move(client);
}

/// The census only observes hosts that occur in records, while the Sweeper
/// counts sites over EVERY corpus hostname — so the cross-check corpus must
/// be narrowed to request-referenced hostnames first.
archive::Corpus referenced_only(const archive::Corpus& corpus) {
  std::vector<std::uint32_t> remap(corpus.unique_host_count(), UINT32_MAX);
  std::vector<std::string> hostnames;
  std::vector<archive::Request> requests;
  requests.reserve(corpus.request_count());
  const auto intern = [&](archive::HostId id) {
    if (remap[id] == UINT32_MAX) {
      remap[id] = static_cast<std::uint32_t>(hostnames.size());
      hostnames.push_back(corpus.hostname(id));
    }
    return remap[id];
  };
  for (const auto& req : corpus.requests()) {
    requests.push_back(archive::Request{intern(req.page_host), intern(req.resource_host)});
  }
  return archive::Corpus(std::move(hostnames), std::move(requests));
}

std::vector<WireIngestRecord> wire_records(const archive::Corpus& corpus) {
  std::vector<WireIngestRecord> records;
  records.reserve(corpus.request_count());
  std::uint64_t ts = 0;
  for (const auto& req : corpus.requests()) {
    records.push_back(WireIngestRecord{corpus.hostname(req.page_host),
                                       corpus.hostname(req.resource_host), ts++});
  }
  return records;
}

TEST(NetAnalyticsTest, IngestAndCensusRoundTrip) {
  serve::Engine engine(latest_snapshot(), analytics_options());
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.error().message;

  Client client = connect_or_die(*port);
  const std::vector<WireIngestRecord> batch = {
      {"www.example.com", "tracker.net", 100},
      {"www.example.com", "cdn.example.com", 101},
      {"shop.example.co.uk", "tracker.net", 102},
  };
  auto ack = client.ingest_batch(batch);
  ASSERT_TRUE(ack.ok()) << ack.error().message;
  EXPECT_EQ(ack->generation, 1u);
  EXPECT_EQ(ack->accepted, 3u);

  auto census = client.census();
  ASSERT_TRUE(census.ok()) << census.error().message;
  EXPECT_EQ(census->generation, 1u);
  EXPECT_EQ(census->records, 3u);
  EXPECT_EQ(census->first_party, 1u);  // cdn.example.com shares example.com
  EXPECT_EQ(census->third_party, 2u);
  EXPECT_EQ(census->unique_hosts, 4u);
  EXPECT_EQ(census->sites_formed, 3u);  // example.com, tracker.net, example.co.uk
  EXPECT_EQ(census->first_timestamp_ms, 100u);
  EXPECT_EQ(census->last_timestamp_ms, 102u);
  ASSERT_EQ(census->trackers.size(), 1u);
  EXPECT_EQ(census->trackers[0].domain, "tracker.net");
  EXPECT_EQ(census->trackers[0].requests, 2u);
  EXPECT_EQ(census->trackers[0].reach, 2u);

  auto empty_ack = client.ingest_batch({});
  ASSERT_TRUE(empty_ack.ok()) << empty_ack.error().message;
  EXPECT_EQ(empty_ack->accepted, 0u);

  server.shutdown();
}

/// Replay the tiny corpus over `clients` (one thread each, interleaved
/// batches), then require the census `reader` reads back to equal the
/// offline Sweeper on the same corpus and list version, with every tracker
/// sketch estimate inside its documented bracket.
void expect_replay_matches_offline_sweep(std::vector<Client> clients, Client& reader) {
  const auto corpus = referenced_only(
      archive::generate_corpus(archive::CorpusSpec::tiny(), shared_history()));
  const auto records = wire_records(corpus);

  constexpr std::size_t kBatch = 311;
  const std::size_t stride = clients.size() * kBatch;
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t offset = c * kBatch; offset < records.size(); offset += stride) {
        const std::size_t len = std::min(kBatch, records.size() - offset);
        for (;;) {
          auto ack = clients[c].ingest_batch(std::span(records).subspan(offset, len));
          if (!ack.ok() && ack.error().code == "net.backpressure") continue;
          ASSERT_TRUE(ack.ok()) << ack.error().message;
          ASSERT_EQ(ack->accepted, len);
          break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  auto census = reader.census(512);
  ASSERT_TRUE(census.ok()) << census.error().message;

  // The offline pipeline on the same corpus and list version.
  const harm::Sweeper sweeper(shared_history(), corpus);
  const auto offline = sweeper.evaluate_list(shared_history().latest());

  EXPECT_EQ(census->records, corpus.request_count());
  EXPECT_EQ(census->dropped, 0u);
  EXPECT_EQ(census->unique_hosts, corpus.unique_host_count());
  EXPECT_EQ(census->sites_formed, offline.site_count)
      << "online census must form exactly the offline sweep's sites";
  EXPECT_EQ(census->third_party, offline.third_party_requests)
      << "online third-party classification must match the offline sweep";
  EXPECT_EQ(census->first_party, census->records - census->third_party);

  // Tracker sketch brackets against a brute-force reference.
  const CompiledMatcher matcher(shared_history().latest());
  const auto site_key = [&](const std::string& host) {
    if (url::looks_like_ip_literal(host)) return host;
    const auto m = matcher.match(host);
    return m.registrable_domain.empty() ? host : m.registrable_domain;
  };
  std::map<std::string, std::uint64_t> true_requests;
  std::map<std::string, std::set<std::string>> true_sites;
  for (const auto& req : corpus.requests()) {
    const std::string page_site = site_key(corpus.hostname(req.page_host));
    const std::string resource_site = site_key(corpus.hostname(req.resource_host));
    if (page_site == resource_site) continue;
    ++true_requests[resource_site];
    true_sites[resource_site].insert(page_site);
  }
  ASSERT_FALSE(census->trackers.empty());
  for (const auto& row : census->trackers) {
    const auto req_it = true_requests.find(row.domain);
    ASSERT_NE(req_it, true_requests.end()) << row.domain;
    EXPECT_GE(row.requests, req_it->second);
    EXPECT_LE(row.requests - std::min(row.requests, row.requests_err), req_it->second);
    const std::uint64_t true_reach = true_sites.at(row.domain).size();
    EXPECT_GE(row.reach, true_reach);
    EXPECT_LE(row.reach, true_reach + row.reach_err);
  }
}

TEST(NetAnalyticsTest, CensusMatchesOfflineSweeperExactly) {
  serve::Engine engine(latest_snapshot(), analytics_options(3));
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  // Replay over the wire from two concurrent clients, interleaved batches.
  std::vector<Client> clients;
  clients.push_back(connect_or_die(*port));
  clients.push_back(connect_or_die(*port));
  Client reader = connect_or_die(*port);
  expect_replay_matches_offline_sweep(std::move(clients), reader);
  server.shutdown();
}

TEST(NetFleetTest, IngestAcrossLoopsMatchesOfflineSweeper) {
  // psld --shards 2: ingest split across both loops lands in the engine's
  // one census, which must equal the offline sweep exactly.
  serve::Engine engine(latest_snapshot(), analytics_options(3));
  test_support::Fleet fleet(engine);
  std::vector<Client> clients = fleet.clients_on_every_loop(1);
  Client reader = connect_or_die(fleet.port());
  expect_replay_matches_offline_sweep(std::move(clients), reader);
}

TEST(NetAnalyticsTest, UnsupportedWithoutCensus) {
  serve::Engine engine(latest_snapshot(), {.threads = 2});  // no census factory
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  const std::vector<WireIngestRecord> batch = {{"a.example.com", "b.example.net", 0}};
  auto ack = client.ingest_batch(batch);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.error().code, "net.unsupported");
  EXPECT_EQ(ack.error().message, "analytics.none");

  auto census = client.census();
  ASSERT_FALSE(census.ok());
  EXPECT_EQ(census.error().code, "net.unsupported");
  EXPECT_EQ(census.error().message, "analytics.none");

  // The connection survives the unsupported answers.
  EXPECT_TRUE(client.ping().ok());
  auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->analytics_enabled, 0u);
  server.shutdown();
}

/// Minimal raw socket for payloads the typed Client refuses to produce.
class RawAnalyticsConn {
 public:
  explicit RawAnalyticsConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  ~RawAnalyticsConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Send one frame, read back the response's status byte.
  std::uint8_t round_trip_status(FrameType type, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> frame;
    encode_frame(frame, type, 42, payload);
    EXPECT_EQ(::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    FrameDecoder decoder;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return 0xFF;
      decoder.feed({buf, static_cast<std::size_t>(n)});
      Frame out;
      if (decoder.next(out) == FrameDecoder::Next::kFrame) {
        EXPECT_EQ(out.header.type, static_cast<std::uint8_t>(type) | 0x80);
        return out.payload.empty() ? 0xFF : out.payload[0];
      }
    }
  }

 private:
  int fd_ = -1;
};

TEST(NetAnalyticsTest, MalformedAnalyticsPayloadsAreRejected) {
  serve::Engine engine(latest_snapshot(), analytics_options());
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawAnalyticsConn raw(*port);
  constexpr std::uint8_t kMalformedStatus = 2;

  // Truncated ingest: count says 5 records, body carries none.
  std::vector<std::uint8_t> truncated;
  put_u32(truncated, 5);
  EXPECT_EQ(raw.round_trip_status(FrameType::kIngestBatch, truncated), kMalformedStatus);

  // A record whose str16 length overruns the payload.
  std::vector<std::uint8_t> overrun;
  put_u32(overrun, 1);
  put_u16(overrun, 0xFFFF);  // page_host claims 65535 bytes, none follow
  EXPECT_EQ(raw.round_trip_status(FrameType::kIngestBatch, overrun), kMalformedStatus);

  // census_query with trailing junk: reader.done() must fail.
  std::vector<std::uint8_t> junk;
  put_u32(junk, 0);
  put_u32(junk, 99);
  EXPECT_EQ(raw.round_trip_status(FrameType::kCensusQuery, junk), kMalformedStatus);

  // The connection survives every rejection and still answers well-formed
  // requests (payload-level errors never tear the transport down).
  std::vector<std::uint8_t> ok_census;
  put_u32(ok_census, 4);
  EXPECT_EQ(raw.round_trip_status(FrameType::kCensusQuery, ok_census), 0);

  // The parse helpers reject the same shapes (the fuzzer's decode surface).
  std::vector<WireIngestRecord> scratch;
  EXPECT_FALSE(parse_ingest_request(truncated, scratch));
  EXPECT_FALSE(parse_ingest_request(overrun, scratch));
  std::uint32_t top_k = 0;
  EXPECT_FALSE(parse_census_request(junk, top_k));
  EXPECT_TRUE(parse_census_request(ok_census, top_k));
  EXPECT_EQ(top_k, 4u);
  server.shutdown();
}

TEST(NetAnalyticsTest, StatsCarriesTheAnalyticsBlock) {
  obs::MetricsRegistry metrics;
  auto options = analytics_options();
  options.metrics = &metrics;
  serve::Engine engine(latest_snapshot(), options);
  ServerOptions server_options;
  server_options.metrics = &metrics;
  Server server(engine, server_options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  auto before = client.stats();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->analytics_enabled, 1u);
  EXPECT_EQ(before->analytics_records, 0u);
  EXPECT_EQ(before->analytics_census_queries, 0u);
  EXPECT_GT(before->analytics_state_bytes, 0u);

  const std::vector<WireIngestRecord> two = {{"www.example.com", "tracker.net", 1},
                                             {"www.example.com", "other.org", 2}};
  ASSERT_TRUE(client.ingest_batch(two).ok());
  ASSERT_TRUE(client.census().ok());
  auto after = client.stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->analytics_records, 2u);
  EXPECT_EQ(after->analytics_dropped, 0u);
  EXPECT_EQ(after->analytics_census_queries, 1u);

  EXPECT_EQ(metrics.counter("analytics.ingest.records").value(), 2);
  EXPECT_EQ(metrics.counter("analytics.census.queries").value(), 1);
  EXPECT_GT(metrics.gauge("analytics.hosts.occupancy").value(), 0);
  EXPECT_EQ(metrics.histogram("net.request_ms.ingest").count(), 1);
  EXPECT_EQ(metrics.histogram("net.request_ms.census").count(), 1);
  server.shutdown();
}

// The generation-boundary contract under live reloads: every ack names one
// generation, a batch is never split across a swap, and the serving census
// holds exactly the records acked for ITS generation (TSan-covered).
TEST(NetAnalyticsTest, ReloadUnderIngestKeepsGenerationsDisjoint) {
  serve::Engine engine(latest_snapshot(), analytics_options(3));
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  const List& list = shared_history().latest();
  snapshot::Metadata meta;
  meta.rule_count = list.rules().size();
  const std::string snap_bytes = snapshot::serialize(CompiledMatcher(list), meta);
  const std::vector<std::uint8_t> reload_payload(snap_bytes.begin(), snap_bytes.end());

  constexpr std::size_t kIngestThreads = 3;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatchLen = 32;
  std::mutex tally_mutex;
  std::map<std::uint64_t, std::uint64_t> acked;  // generation -> records acked
  std::atomic<bool> stop_reloads{false};

  std::vector<std::thread> ingesters;
  ingesters.reserve(kIngestThreads);
  for (std::size_t t = 0; t < kIngestThreads; ++t) {
    ingesters.emplace_back([&, t] {
      Client client = connect_or_die(*port);
      std::vector<std::string> hosts;
      std::vector<WireIngestRecord> batch(kBatchLen);
      hosts.reserve(2 * kBatchLen);
      for (std::size_t b = 0; b < kBatches; ++b) {
        hosts.clear();
        for (std::size_t i = 0; i < kBatchLen; ++i) {
          hosts.push_back("page" + std::to_string(t) + "-" + std::to_string(b) + "-" +
                          std::to_string(i) + ".example.com");
          hosts.push_back("res" + std::to_string(i) + ".tracker.net");
          batch[i] = WireIngestRecord{hosts[2 * i], hosts[2 * i + 1],
                                      static_cast<std::uint64_t>(b * kBatchLen + i)};
        }
        for (;;) {
          auto ack = client.ingest_batch(batch);
          if (!ack.ok() && ack.error().code == "net.backpressure") continue;
          ASSERT_TRUE(ack.ok()) << ack.error().message;
          ASSERT_EQ(ack->accepted, kBatchLen) << "a batch lands whole, in one generation";
          std::lock_guard<std::mutex> lock(tally_mutex);
          acked[ack->generation] += ack->accepted;
          break;
        }
      }
    });
  }

  std::thread reloader([&] {
    Client client = connect_or_die(*port);
    while (!stop_reloads.load(std::memory_order_relaxed)) {
      auto swapped = client.reload(reload_payload);
      ASSERT_TRUE(swapped.ok()) << swapped.error().message;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& th : ingesters) th.join();
  stop_reloads.store(true, std::memory_order_relaxed);
  reloader.join();

  std::uint64_t total_acked = 0;
  for (const auto& [generation, count] : acked) total_acked += count;
  EXPECT_EQ(total_acked, kIngestThreads * kBatches * kBatchLen);
  ASSERT_GT(acked.size(), 1u) << "reloads must have interleaved with ingest";

  // With reloads quiesced, one more batch pins the (now stable) serving
  // generation; the census must hold exactly that generation's acks and
  // nothing attributed from any earlier generation.
  Client client = connect_or_die(*port);
  const std::vector<WireIngestRecord> last = {{"final.example.com", "final.tracker.net", 0}};
  auto final_ack = client.ingest_batch(last);
  ASSERT_TRUE(final_ack.ok()) << final_ack.error().message;
  auto census = client.census();
  ASSERT_TRUE(census.ok()) << census.error().message;
  ASSERT_EQ(census->generation, final_ack->generation);
  const auto it = acked.find(census->generation);
  const std::uint64_t expected = (it == acked.end() ? 0 : it->second) + 1;
  EXPECT_EQ(census->records, expected)
      << "generation " << census->generation << " census must hold exactly its acks";
  server.shutdown();
}

}  // namespace
}  // namespace psl::net
