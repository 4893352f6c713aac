// psl::net::Server + Client over real loopback sockets: round trips for
// every request type, wire-level backpressure (reject, never hang), frame-
// vs payload-level violation handling, keep-last-good reloads over the
// wire, timeouts, max-connection shedding, both poller backends (epoll
// and poll), the UDP fast path and its datagram contract, SO_REUSEPORT
// load-balancing across two servers on one port, graceful drain, and
// reload-under-load with concurrent clients (the TSan CI job runs this
// suite via `ctest -R '^(Serve|Net)'`).
#include "psl/net/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "psl/net/client.hpp"
#include "psl/net/frame.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/date.hpp"

namespace psl::net {
namespace {

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

Client connect_or_die(std::uint16_t port, ClientOptions options = {}) {
  auto client = Client::connect("127.0.0.1", port, options);
  EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error().message);
  if (!client.ok()) std::abort();
  return *std::move(client);
}

/// Raw TCP socket for protocol-violation tests the Client refuses to send.
class RawConn {
 public:
  /// rcvbuf_bytes > 0 shrinks SO_RCVBUF before connecting (write-stall tests
  /// want the peer's window to close almost immediately).
  explicit RawConn(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof rcvbuf_bytes);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(std::span<const std::uint8_t> bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Best-effort bulk send: stops at the first error (e.g. the peer reset us
  /// mid-blast) instead of asserting. Returns how much was delivered.
  std::size_t blast(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    return sent;
  }

  /// Block for one whole response frame; returns false on EOF/timeout.
  bool recv_frame(Frame& out, std::vector<std::uint8_t>& storage) {
    FrameDecoder decoder;
    std::uint8_t buf[512];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return false;
      decoder.feed({buf, static_cast<std::size_t>(n)});
      Frame frame;
      const auto outcome = decoder.next(frame);
      if (outcome == FrameDecoder::Next::kFrame) {
        storage.assign(frame.payload.begin(), frame.payload.end());
        out.header = frame.header;
        out.payload = storage;
        return true;
      }
      if (outcome == FrameDecoder::Next::kError) return false;
    }
  }

  /// True when the peer closed the connection (recv sees EOF).
  bool closed_by_peer() {
    std::uint8_t byte;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
};

TEST(NetServerTest, PingStatsRoundTrip) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 2, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.error().message;
  EXPECT_TRUE(server.running());

  Client client = connect_or_die(*port);
  auto pong = client.ping();
  ASSERT_TRUE(pong.ok()) << pong.error().message;

  auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->rule_count, 4u);
  EXPECT_EQ(stats->connections, 1u);

  EXPECT_EQ(server.connection_count(), 1u);
  EXPECT_GE(metrics.counter("net.accepted").value(), 1);
  EXPECT_GE(metrics.counter("net.frames_in").value(), 2);
  EXPECT_GE(metrics.counter("net.frames_out").value(), 2);
  EXPECT_GT(metrics.counter("net.bytes_in").value(), 0);
  EXPECT_EQ(metrics.histogram("net.request_ms.ping").count(), 1);
  EXPECT_EQ(metrics.histogram("net.request_ms.stats").count(), 1);

  server.shutdown();
  EXPECT_FALSE(server.running());
}

TEST(NetServerTest, QueryBatchesRoundTrip) {
  serve::Engine engine(snap_of(list_a()), {.threads = 2});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);

  auto domains = client.registrable_domains(
      {"a.b.example.com", "x.co.uk", "co.uk", "user.github.io"});
  ASSERT_TRUE(domains.ok()) << domains.error().message;
  EXPECT_EQ(*domains, (std::vector<std::string>{"example.com", "x.co.uk", "", "user.github.io"}));

  auto sites = client.same_site_batch(
      {{"a.example.com", "b.example.com"}, {"one.com", "two.com"}, {"a.x.co.uk", "b.x.co.uk"}});
  ASSERT_TRUE(sites.ok()) << sites.error().message;
  EXPECT_EQ(*sites, (std::vector<std::uint8_t>{1, 0, 1}));

  auto matches = client.match_batch({"www.example.co.uk", "co.uk"});
  ASSERT_TRUE(matches.ok()) << matches.error().message;
  ASSERT_EQ(matches->size(), 2u);
  EXPECT_EQ((*matches)[0].public_suffix, "co.uk");
  EXPECT_EQ((*matches)[0].registrable_domain, "example.co.uk");
  EXPECT_TRUE((*matches)[0].matched_explicit_rule);
  EXPECT_EQ((*matches)[1].registrable_domain, "");  // itself a suffix

  // Empty batches are legal and answer instantly.
  auto empty = client.registrable_domains({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(NetServerTest, OversizeResponseAnswersStatusAndKeepsConnection) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());
  Client client = connect_or_die(*port);

  // A valid request just under the 1 MiB frame cap whose answer — suffix and
  // registrable domain per host — encodes to ~1.2 MB, over the cap.
  const std::vector<std::string> hosts(14553, std::string(60, 'x') + ".github.io");
  auto big = client.match_batch(hosts);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.error().code, "net.unsupported");
  EXPECT_EQ(big.error().message, "response.oversize");

  // The connection survives, and a batch that fits is answered in full.
  auto pong = client.ping();
  ASSERT_TRUE(pong.ok()) << pong.error().message;
  auto fits = client.match_batch(std::vector<std::string>(1000, hosts.front()));
  ASSERT_TRUE(fits.ok()) << fits.error().message;
  ASSERT_EQ(fits->size(), 1000u);
  EXPECT_EQ(fits->front().registrable_domain, hosts.front());
}

TEST(NetServerTest, BackpressureIsWireLevelRejectNotHang) {
  obs::MetricsRegistry metrics;
  // One worker, zero queue slots: while the worker is pinned, every batch
  // submit is rejected deterministically.
  serve::Engine engine(snap_of(list_a()),
                       {.threads = 1, .max_queue_depth = 0, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);

  auto rejected = client.registrable_domains({"a.example.com"});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, "net.backpressure");

  // The reject was an explicit wire response: the connection is still
  // healthy and non-queued request types keep working.
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.ping().ok());
  auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->generation, 1u);

  EXPECT_GE(metrics.counter("net.reject.backpressure").value(), 1);
  EXPECT_GE(metrics.counter("serve.rejected").value(), 1);

  server.shutdown();
}

TEST(NetServerTest, WireReloadIsKeepLastGood) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  auto before = client.registrable_domains({"shop1.myshopify.com"});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)[0], "myshopify.com");  // list_a: .com is the suffix

  // Garbage bytes: rejected, generation unchanged, old list still serving.
  const std::vector<std::uint8_t> garbage = {'n', 'o', 't', ' ', 'a', ' ', 's', 'n', 'a', 'p'};
  auto bad = client.reload(garbage);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "net.reload-rejected");
  EXPECT_EQ(engine.generation(), 1u);
  EXPECT_TRUE(client.connected());

  // Valid snapshot: swapped, and the SAME connection sees the new answers.
  auto good = client.reload(snapshot_bytes(list_b()));
  ASSERT_TRUE(good.ok()) << good.error().message;
  EXPECT_EQ(*good, 2u);
  auto after = client.registrable_domains({"shop1.myshopify.com"});
  ASSERT_TRUE(after.ok()) << after.error().code << ": " << after.error().message;
  EXPECT_EQ((*after)[0], "shop1.myshopify.com");  // myshopify.com is now a suffix

  EXPECT_GE(metrics.counter("serve.reload.failure").value(), 1);
  EXPECT_GE(metrics.counter("serve.reload.success").value(), 1);
  EXPECT_EQ(metrics.histogram("net.request_ms.reload").count(), 2);
}

TEST(NetServerTest, MalformedPayloadAnswersAndKeepsConnection) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawConn raw(*port);
  // same_site_batch claiming 5 pairs with no data behind the count.
  std::vector<std::uint8_t> payload;
  put_u32(payload, 5);
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kSameSiteBatch), 77, payload);
  raw.send_bytes(wire);

  Frame response;
  std::vector<std::uint8_t> storage;
  ASSERT_TRUE(raw.recv_frame(response, storage));
  EXPECT_EQ(response.header.type,
            static_cast<std::uint8_t>(FrameType::kSameSiteBatch) | kResponseBit);
  EXPECT_EQ(response.header.id, 77u);
  ASSERT_FALSE(response.payload.empty());
  EXPECT_EQ(response.payload[0], static_cast<std::uint8_t>(Status::kMalformed));

  // Connection survives: a ping on the same socket still answers.
  wire.clear();
  const std::uint8_t probe[4] = {1, 2, 3, 4};
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 78, probe);
  raw.send_bytes(wire);
  ASSERT_TRUE(raw.recv_frame(response, storage));
  EXPECT_EQ(response.header.id, 78u);
  ASSERT_EQ(response.payload.size(), 5u);
  EXPECT_EQ(response.payload[0], static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(response.payload[1], 1u);

  EXPECT_GE(metrics.counter("net.reject.malformed").value(), 1);
}

TEST(NetServerTest, UnknownFrameTypeAnswersUnsupported) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawConn raw(*port);
  std::vector<std::uint8_t> wire;
  encode_frame(wire, 0x66, 5, {});
  raw.send_bytes(wire);

  Frame response;
  std::vector<std::uint8_t> storage;
  ASSERT_TRUE(raw.recv_frame(response, storage));
  EXPECT_EQ(response.header.type, 0x66 | kResponseBit);
  ASSERT_FALSE(response.payload.empty());
  EXPECT_EQ(response.payload[0], static_cast<std::uint8_t>(Status::kUnsupported));
}

TEST(NetServerTest, FrameLevelViolationClosesConnection) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawConn raw(*port);
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, {});
  wire[0] ^= 0xFF;  // break the magic
  raw.send_bytes(wire);
  EXPECT_TRUE(raw.closed_by_peer());

  // Give the loop a moment to record the error before we read the counter.
  for (int i = 0; i < 100 && metrics.counter("net.frame_errors").value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(metrics.counter("net.frame_errors").value(), 1);
}

TEST(NetServerTest, MaxConnectionsShedsExtraClients) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.max_connections = 1;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client first = connect_or_die(*port);
  ASSERT_TRUE(first.ping().ok());

  // The second connection is accepted then immediately shed; its first
  // request fails instead of hanging.
  ClientOptions fast;
  fast.io_timeout_ms = 2000;
  auto second = Client::connect("127.0.0.1", *port, fast);
  if (second.ok()) {
    EXPECT_FALSE(second->ping().ok());
  }
  for (int i = 0; i < 100 && metrics.counter("net.reject.max_conns").value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(metrics.counter("net.reject.max_conns").value(), 1);

  // The first connection was never disturbed.
  EXPECT_TRUE(first.ping().ok());
}

TEST(NetServerTest, IdleAndReadTimeoutsCloseConnections) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.idle_timeout_ms = 150;
  options.read_timeout_ms = 100;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  {
    RawConn idle(*port);
    EXPECT_TRUE(idle.closed_by_peer());  // no traffic: idle timeout fires
  }
  {
    RawConn stuck(*port);
    const std::uint8_t one_byte[1] = {0};
    std::vector<std::uint8_t> wire;
    encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, one_byte);
    wire.pop_back();  // started frame, never finished
    stuck.send_bytes(wire);
    EXPECT_TRUE(stuck.closed_by_peer());  // read timeout fires
  }
  EXPECT_GE(metrics.counter("net.timeout.idle").value(), 1);
  EXPECT_GE(metrics.counter("net.timeout.read").value(), 1);
}

TEST(NetServerTest, WriteStalledPeerIsTimedOutNotSpunOn) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.max_frame_bytes = 4096;    // park reads after ~one frame of backlog
  options.idle_timeout_ms = 60'000;  // only the write-stall timeout may fire
  options.read_timeout_ms = 60'000;
  options.write_stall_timeout_ms = 200;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  // A peer with a tiny receive window that blasts pings and never reads a
  // byte back: echoes pile up in the connection's outbound buffer and make
  // no send progress. The stalled connection must be reclaimed (counted in
  // net.timeout.write_stall) — idle/read timeouts cannot fire for it, and
  // before the write-stall timeout existed it was pinned open forever while
  // its passed idle deadline clamped the poll timeout to zero (a busy-spin).
  // The blast must out-size everything the kernel can absorb on loopback
  // (server send buffer autotunes up to tcp_wmem[2], typically 4 MiB), so it
  // is ~9 MiB; blast() tolerates the server resetting us mid-send.
  {
    RawConn stalled(*port, /*rcvbuf_bytes=*/4096);
    std::vector<std::uint8_t> payload(3000, 0xAB);
    std::vector<std::uint8_t> wire;
    encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, payload);
    std::vector<std::uint8_t> burst;
    burst.reserve(wire.size() * 3000);
    for (int i = 0; i < 3000; ++i) burst.insert(burst.end(), wire.begin(), wire.end());
    stalled.blast(burst);
    for (int i = 0; i < 1000 && (metrics.counter("net.timeout.write_stall").value() == 0 ||
                                 server.connection_count() != 0);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(metrics.counter("net.timeout.write_stall").value(), 1);
    EXPECT_EQ(server.connection_count(), 0u);
  }

  // The server is still healthy for well-behaved clients afterwards.
  Client client = connect_or_die(*port);
  EXPECT_TRUE(client.ping().ok());
}

TEST(NetServerTest, PollBackendServesIdentically) {
  serve::Engine engine(snap_of(list_a()), {.threads = 2});
  ServerOptions options;
  options.backend = Backend::kPoll;  // pin the portable poll() backend
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  EXPECT_TRUE(client.ping().ok());
  auto domains = client.registrable_domains({"a.b.example.com"});
  ASSERT_TRUE(domains.ok());
  EXPECT_EQ((*domains)[0], "example.com");
  auto good = client.reload(snapshot_bytes(list_b()));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 2u);
}

TEST(NetServerTest, GracefulDrainAnswersInFlightBatches) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .max_queue_depth = 8});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  // Pin the single worker so a client batch is queued but unanswered when
  // shutdown begins.
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> pinned_running{false};
  ASSERT_EQ(engine.submit_job([&](const serve::Engine::Pinned&) {
              pinned_running.store(true);
              std::unique_lock<std::mutex> lock(m);
              cv.wait(lock, [&] { return release; });
            }),
            serve::Engine::Enqueue::kOk);

  std::thread querier([&] {
    Client client = connect_or_die(*port);
    auto domains = client.registrable_domains({"a.b.example.com"});
    ASSERT_TRUE(domains.ok()) << domains.error().message;
    EXPECT_EQ((*domains)[0], "example.com");
  });

  // Wait until the pinned job occupies the worker AND the client batch sits
  // in the queue behind it, then shut down while releasing the worker: drain
  // must deliver the queued response. (Checking queue_depth alone races: the
  // pinned job itself is counted until the worker dequeues it, and shutting
  // down before the request frame is read RSTs the querier.)
  for (int i = 0;
       i < 400 && !(pinned_running.load() && engine.queue_depth() >= 1); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  });
  server.shutdown();
  querier.join();
  releaser.join();
}

TEST(NetServerTest, ReloadUnderLoadManyClients) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()),
                       {.threads = 2, .max_queue_depth = 256, .metrics = &metrics});
  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  constexpr int kClients = 3;
  constexpr int kBatchesPerClient = 40;
  constexpr int kReloads = 20;
  const std::vector<std::uint8_t> bytes_a = snapshot_bytes(list_a());
  const std::vector<std::uint8_t> bytes_b = snapshot_bytes(list_b());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = connect_or_die(*port);
      for (int i = 0; i < kBatchesPerClient; ++i) {
        auto domains = client.registrable_domains(
            {"a.b.example.com", "shop1.myshopify.com", "user.github.io"});
        if (!domains.ok()) {
          if (domains.error().code == "net.backpressure") {
            std::this_thread::yield();
            continue;
          }
          ++failures;
          return;
        }
        // Batch-granular swap visibility: both hosts answered by ONE list.
        const bool suffix_known = (*domains)[1] == "shop1.myshopify.com";
        if (!suffix_known && (*domains)[1] != "myshopify.com") ++failures;
        if ((*domains)[0] != "example.com") ++failures;
      }
    });
  }
  std::thread reloader([&] {
    Client client = connect_or_die(*port);
    for (int i = 0; i < kReloads; ++i) {
      const auto& bytes = i % 2 == 0 ? bytes_b : bytes_a;
      auto swapped = client.reload(bytes);
      if (!swapped.ok()) ++failures;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : clients) t.join();
  reloader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.generation(), 1u + kReloads);
  server.shutdown();
  EXPECT_EQ(server.connection_count(), 0u);
}

/// Two-version store file (list_a dated 2020-06-01, list_b dated
/// 2021-06-01) for the time-travel frames; returns its path.
std::string write_two_version_store(const std::string& name) {
  store::Builder builder;
  const auto add = [&](const List& list, int year) {
    snapshot::Metadata meta;
    meta.source_date = util::Date::from_civil(year, 6, 1);
    meta.rule_count = list.rules().size();
    auto added = builder.add(CompiledMatcher(list), meta);
    ASSERT_TRUE(added.ok()) << (added.ok() ? "" : added.error().message);
  };
  add(list_a(), 2020);
  add(list_b(), 2021);
  const std::string path = testing::TempDir() + name;
  auto written = builder.write_file(path);
  EXPECT_TRUE(written.ok()) << (written.ok() ? "" : written.error().message);
  return path;
}

TEST(NetServerTest, MatchAtWithoutStoreIsUnsupported) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  Client client = connect_or_die(*port);
  auto answer = client.match_at(util::Date::from_civil(2021, 1, 1), {"a.com"});
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error().code, "net.unsupported");
  auto ranges = client.divergence("a.com");
  ASSERT_FALSE(ranges.ok());
  EXPECT_EQ(ranges.error().code, "net.unsupported");
  // The connection stays healthy after both rejections.
  EXPECT_TRUE(client.ping().ok());
}

TEST(NetServerTest, MatchAtAndDivergenceRoundTrip) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_b()), {.threads = 2, .metrics = &metrics});
  const std::string path = write_two_version_store("wire_two_version.pstore");
  auto adopted = engine.open_store(path);
  ASSERT_TRUE(adopted.ok()) << (adopted.ok() ? "" : adopted.error().message);

  ServerOptions options;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());
  Client client = connect_or_die(*port);

  // Before the rule existed: shop1.myshopify.com hangs off the implicit com
  // boundary. The resolved version is the newest one dated <= the query.
  auto before = client.match_at(util::Date::from_civil(2020, 12, 1),
                                {"shop1.myshopify.com", "x.co.uk"});
  ASSERT_TRUE(before.ok()) << before.error().message;
  EXPECT_EQ(before->version_date_days,
            util::Date::from_civil(2020, 6, 1).days_since_epoch());
  EXPECT_EQ(before->rule_count, 4u);
  ASSERT_EQ(before->matches.size(), 2u);
  EXPECT_EQ(before->matches[0].registrable_domain, "myshopify.com");
  EXPECT_EQ(before->matches[1].registrable_domain, "x.co.uk");

  // After: the explicit myshopify.com rule pushes the boundary down a label.
  auto after = client.match_at(util::Date::from_civil(2022, 1, 1),
                               {"shop1.myshopify.com"});
  ASSERT_TRUE(after.ok()) << after.error().message;
  EXPECT_EQ(after->version_date_days,
            util::Date::from_civil(2021, 6, 1).days_since_epoch());
  ASSERT_EQ(after->matches.size(), 1u);
  EXPECT_EQ(after->matches[0].registrable_domain, "shop1.myshopify.com");
  EXPECT_TRUE(after->matches[0].matched_explicit_rule);

  // A date before the first stored version cannot be answered.
  auto too_early = client.match_at(util::Date::from_civil(2019, 1, 1), {"a.com"});
  ASSERT_FALSE(too_early.ok());
  EXPECT_EQ(too_early.error().code, "net.malformed");

  // Divergence: the wire answer is exactly the offline sweep — one range per
  // consecutive equal-answer run, covering the whole stored span.
  auto ranges = client.divergence("shop1.myshopify.com");
  ASSERT_TRUE(ranges.ok()) << ranges.error().message;
  const std::vector<WireDivergenceRange> expected{
      {util::Date::from_civil(2020, 6, 1).days_since_epoch(),
       util::Date::from_civil(2020, 6, 1).days_since_epoch(), "myshopify.com"},
      {util::Date::from_civil(2021, 6, 1).days_since_epoch(),
       util::Date::from_civil(2021, 6, 1).days_since_epoch(), "shop1.myshopify.com"},
  };
  EXPECT_EQ(*ranges, expected);

  // A host whose answer never changed collapses to a single range.
  auto stable = client.divergence("x.co.uk");
  ASSERT_TRUE(stable.ok());
  ASSERT_EQ(stable->size(), 1u);
  EXPECT_EQ((*stable)[0].registrable_domain, "x.co.uk");
  EXPECT_EQ((*stable)[0].first_date_days,
            util::Date::from_civil(2020, 6, 1).days_since_epoch());
  EXPECT_EQ((*stable)[0].last_date_days,
            util::Date::from_civil(2021, 6, 1).days_since_epoch());

  EXPECT_GE(metrics.histogram("net.request_ms.match_at").count(), 2);
  EXPECT_GE(metrics.histogram("net.request_ms.divergence").count(), 2);
}

TEST(NetServerTest, MatchAtMalformedPayloadKeepsConnection) {
  serve::Engine engine(snap_of(list_b()), {.threads = 1});
  const std::string path = write_two_version_store("wire_malformed.pstore");
  ASSERT_TRUE(engine.open_store(path).ok());
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawConn raw(*port);
  // A match_at request claiming 3 hosts with no data behind the count.
  std::vector<std::uint8_t> payload;
  put_u64(payload, 18000);
  put_u32(payload, 3);
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kMatchAt), 91, payload);
  raw.send_bytes(wire);

  Frame response;
  std::vector<std::uint8_t> storage;
  ASSERT_TRUE(raw.recv_frame(response, storage));
  EXPECT_EQ(response.header.type,
            static_cast<std::uint8_t>(FrameType::kMatchAt) | kResponseBit);
  ASSERT_FALSE(response.payload.empty());
  EXPECT_EQ(response.payload[0], static_cast<std::uint8_t>(Status::kMalformed));

  // Divergence with a truncated str16 is equally malformed, same socket.
  payload.clear();
  payload.push_back(0xFF);  // half of a u16 length prefix
  wire.clear();
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kDivergence), 92, payload);
  raw.send_bytes(wire);
  ASSERT_TRUE(raw.recv_frame(response, storage));
  EXPECT_EQ(response.payload[0], static_cast<std::uint8_t>(Status::kMalformed));

  // Connection survives both.
  const std::uint8_t probe[4] = {9, 9, 9, 9};
  wire.clear();
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 93, probe);
  raw.send_bytes(wire);
  ASSERT_TRUE(raw.recv_frame(response, storage));
  EXPECT_EQ(response.header.id, 93u);
  EXPECT_EQ(response.payload[0], static_cast<std::uint8_t>(Status::kOk));
}

TEST(NetServerTest, BackendNameReportsTheActiveBackend) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  {
    Server server(engine, {});
    EXPECT_STREQ(server.backend_name(), "none");  // nothing bound yet
    ASSERT_TRUE(server.start().ok());
    EXPECT_STREQ(server.backend_name(), "epoll");  // kAuto resolves to epoll on Linux
    server.shutdown();
  }
  {
    ServerOptions options;
    options.backend = Backend::kPoll;
    Server server(engine, options);
    ASSERT_TRUE(server.start().ok());
    EXPECT_STREQ(server.backend_name(), "poll");
  }
}

TEST(NetServerTest, UdpFastPathRoundTrips) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 2, .metrics = &metrics});
  ServerOptions options;
  options.enable_udp = true;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.error().message;

  auto connected = Client::connect_udp("127.0.0.1", *port, {});
  ASSERT_TRUE(connected.ok()) << connected.error().message;
  Client udp = *std::move(connected);
  EXPECT_TRUE(udp.udp());
  EXPECT_TRUE(udp.ping().ok());

  // The datagram answers must be byte-for-byte the TCP batch semantics.
  auto domains = udp.registrable_domains({"a.b.example.com", "x.co.uk", "co.uk"});
  ASSERT_TRUE(domains.ok()) << domains.error().message;
  EXPECT_EQ(*domains, (std::vector<std::string>{"example.com", "x.co.uk", ""}));

  auto matches = udp.match_batch({"www.example.co.uk"});
  ASSERT_TRUE(matches.ok()) << matches.error().message;
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].public_suffix, "co.uk");
  EXPECT_EQ((*matches)[0].registrable_domain, "example.co.uk");
  EXPECT_TRUE((*matches)[0].matched_explicit_rule);

  auto sites = udp.same_site_batch(
      {{"a.example.com", "b.example.com"}, {"one.com", "two.com"}});
  ASSERT_TRUE(sites.ok()) << sites.error().message;
  EXPECT_EQ(*sites, (std::vector<std::uint8_t>{1, 0}));

  auto stats = udp.stats();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->rule_count, 4u);
  // Each host and pair answered over UDP counts once: 3 + 1 hosts, 2 pairs.
  EXPECT_EQ(metrics.counter("serve.queries").value(), 6);

  // No push channel over datagrams — that is a documented contract, not a
  // timeout.
  auto pushes = udp.poll_pushes();
  ASSERT_FALSE(pushes.ok());
  EXPECT_EQ(pushes.error().code, "net.unsupported");

  // A TCP client coexists on the same port and sees the same list.
  Client tcp = connect_or_die(*port);
  auto tcp_domains = tcp.registrable_domains({"a.b.example.com"});
  ASSERT_TRUE(tcp_domains.ok());
  EXPECT_EQ((*tcp_domains)[0], "example.com");

  EXPECT_GE(metrics.counter("net.udp.datagrams").value(), 5);
  EXPECT_EQ(metrics.counter("net.udp.dropped").value(), 0);
}

/// Raw UDP socket for datagram-contract tests the Client refuses to send.
class RawUdp {
 public:
  explicit RawUdp(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    timeval tv{0, 300'000};  // short: "no response" tests wait this out
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawUdp() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_datagram(std::span<const std::uint8_t> bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// One datagram or -1 on timeout.
  ssize_t recv_datagram(std::vector<std::uint8_t>& out) {
    out.resize(kUdpMaxDatagramBytes);
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) out.resize(static_cast<std::size_t>(n));
    return n;
  }

 private:
  int fd_ = -1;
};

TEST(NetServerTest, UdpDatagramContract) {
  obs::MetricsRegistry metrics;
  serve::Engine engine(snap_of(list_a()), {.threads = 1, .metrics = &metrics});
  ServerOptions options;
  options.enable_udp = true;
  options.metrics = &metrics;
  Server server(engine, options);
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawUdp raw(*port);
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> datagram;

  // Stream-only request types answer kUnsupported with the udp detail —
  // reload over a lossy datagram would be a silent-corruption hazard.
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kReload), 7, {});
  raw.send_datagram(wire);
  ASSERT_GE(raw.recv_datagram(datagram), 17);
  // Type byte at offset 5 (frame.hpp layout), status right after the header.
  EXPECT_EQ(datagram[5], static_cast<std::uint8_t>(FrameType::kReload) | kResponseBit);
  EXPECT_EQ(datagram[kHeaderBytes], static_cast<std::uint8_t>(Status::kUnsupported));

  // A malformed datagram (broken magic) is dropped silently: datagrams
  // cannot be resynchronized or answered reliably, so there is no reply.
  wire.clear();
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 8, {});
  wire[0] ^= 0xFF;
  raw.send_datagram(wire);
  EXPECT_LT(raw.recv_datagram(datagram), 0);  // recv timeout, not a response

  // The socket (and server) keep serving valid requests afterwards.
  wire.clear();
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 9, {});
  raw.send_datagram(wire);
  ASSERT_GE(raw.recv_datagram(datagram), 17);
  EXPECT_EQ(datagram[kHeaderBytes], static_cast<std::uint8_t>(Status::kOk));

  EXPECT_GE(metrics.counter("net.udp.dropped").value(), 1);
}

TEST(NetServerTest, UdpDisabledByDefault) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server server(engine, {});  // enable_udp defaults to false
  auto port = server.start();
  ASSERT_TRUE(port.ok());

  RawUdp raw(*port);
  std::vector<std::uint8_t> wire;
  encode_frame(wire, static_cast<std::uint8_t>(FrameType::kPing), 1, {});
  raw.send_datagram(wire);
  std::vector<std::uint8_t> datagram;
  EXPECT_LT(raw.recv_datagram(datagram), 0);  // nobody home on UDP
}

TEST(NetServerTest, ReusePortServersShareOnePort) {
  // Two servers, each over its own engine, join one SO_REUSEPORT group
  // (psld --shards shares one engine; NetFleetTest covers that). The
  // kernel picks the member per connection, so the assertion is that every
  // connection is answered by SOME member, and that shutting one down
  // hands the whole port to the survivor.
  serve::Engine engine_a(snap_of(list_a()), {.threads = 1});
  serve::Engine engine_b(snap_of(list_b()), {.threads = 1});
  ServerOptions first_options;
  first_options.reuse_port = true;
  Server first(engine_a, first_options);
  auto port = first.start();
  ASSERT_TRUE(port.ok()) << port.error().message;

  ServerOptions second_options;
  second_options.reuse_port = true;
  second_options.port = *port;
  Server second(engine_b, second_options);
  auto joined = second.start();
  ASSERT_TRUE(joined.ok()) << joined.error().message;
  EXPECT_EQ(*joined, *port);

  for (int i = 0; i < 8; ++i) {
    Client client = connect_or_die(*port);
    auto stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_EQ(stats->generation, 1u);
    EXPECT_TRUE(stats->rule_count == 4u || stats->rule_count == 5u)
        << "answered by neither group member: " << stats->rule_count;
  }

  first.shutdown();
  Client client = connect_or_die(*port);
  auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats->rule_count, 5u);  // only engine_b's server remains

  // Without reuse_port, joining the occupied port is refused by the kernel.
  ServerOptions plain;
  plain.port = *port;
  Server third(engine_a, plain);
  auto refused = third.start();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "net.listen");
}

TEST(NetServerTest, ShutdownIsIdempotentAndRestartFails) {
  serve::Engine engine(snap_of(list_a()), {.threads = 1});
  Server server(engine, {});
  auto port = server.start();
  ASSERT_TRUE(port.ok());
  EXPECT_FALSE(server.start().ok());  // already running
  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace psl::net
