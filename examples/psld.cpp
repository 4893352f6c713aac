// psld: the PSL query daemon — a real network service over psl::net +
// psl::serve.
//
// Serve (the daemon proper):
//
//   $ psld --listen 127.0.0.1:7878 (--snapshot list.psnap | --store hist.pstore)
//          [--threads N] [--max-conns N] [--queue-depth N]
//          [--max-frame BYTES] [--backend auto|epoll|poll] [--udp]
//          [--shards N] [--analytics]
//
//   Boots a serve::Engine from the validated snapshot file — or, with
//   --store, from the newest version of a multi-version psl::store file,
//   which additionally enables the match_at / divergence time-travel frames.
//   Either file is read into memory psld owns, so rewriting it in place
//   under a running daemon cannot change or crash what it serves.
//
//   --shards N runs N event loops in this one process, joined on one port
//   by SO_REUSEPORT, over that one engine (N x --threads workers). Every
//   loop answers from the same generation, census and push channel; a
//   crash ends the whole process, and its supervisor restarts it.
//   Signal handlers are installed BEFORE the listener goes live (and before
//   the snapshot load), so a supervisor that signals the moment the process
//   exists still gets the contract below instead of the default disposition:
//     SIGHUP   re-read --snapshot / --store and hot-swap it (keep-last-good:
//              a corrupt file is rejected and the previous list keeps
//              serving);
//     SIGTERM/SIGINT  graceful drain (in-flight batches finish, responses
//              flush), metrics to stderr, exit 0.
//
//   --analytics attaches a bounded-memory psl::analytics census to every
//   serving generation: clients stream (page_host, resource_host) records
//   via ingest_batch and read the harm aggregates back via census_query.
//   A hot swap starts a FRESH census — the census describes one list
//   generation, never a blend (same RCU doctrine as the per-worker caches).
//
// Tooling subcommands (what the CI loopback smoke job drives):
//
//   $ psld compile <list.txt> <out.psnap>     # PSL text -> snapshot file
//   $ psld query  <addr:port> <host>...       # print eTLD+1 per host
//   $ psld match-at <addr:port> <YYYY-MM-DD> <host>...  # time-travel eTLD+1
//   $ psld divergence <addr:port> <host>      # eTLD+1 history ranges
//   $ psld ping   <addr:port>                 # liveness probe, exit 0/1
//   $ psld stats  <addr:port>                 # generation / rules / conns
//   $ psld census <addr:port> [K]             # analytics census (top-K trackers)
//   $ psld reload <addr:port> <snap.psnap>    # push a snapshot over the wire
//   $ psld watch  <addr:port> [count]         # subscribe; print pushed
//                                             # generation changes (no polling
//                                             # queries — the daemon pushes)
//
// Wire payloads (notably reload snapshots) are bounded by the frame cap;
// --max-frame raises it on both the server and the client subcommands.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "psl/analytics/census.hpp"
#include "psl/net/client.hpp"
#include "psl/net/server.hpp"
#include "psl/obs/json.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/date.hpp"

namespace {

// Self-pipe: handlers do one async-signal-safe write; the main thread
// blocks on the read end and turns bytes back into reload/drain actions.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int sig) {
  const std::uint8_t byte = sig == SIGHUP ? 'H' : 'T';
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  psld --listen ADDR:PORT (--snapshot FILE | --store FILE) [--threads N]\n"
               "       [--max-conns N] [--queue-depth N] [--max-frame BYTES]\n"
               "       [--backend auto|epoll|poll] [--udp]\n"
               "       [--shards N] [--analytics]\n"
               "PORT 0 asks the kernel for an ephemeral port; the banner names it.\n"
               "--shards N runs N event loops in one process on one SO_REUSEPORT\n"
               "port over one engine (--threads is per shard). Files are read\n"
               "into memory; publish new ones by rename (a reload that reads a\n"
               "half-written file rejects it and keeps serving the last good one).\n"
               "  psld compile LIST_FILE OUT_SNAPSHOT\n"
               "  psld query  ADDR:PORT HOST...\n"
               "  psld match-at ADDR:PORT YYYY-MM-DD HOST...\n"
               "  psld divergence ADDR:PORT HOST\n"
               "  psld ping   ADDR:PORT\n"
               "  psld stats  ADDR:PORT\n"
               "  psld census ADDR:PORT [TOP_K]\n"
               "  psld reload ADDR:PORT SNAPSHOT_FILE\n"
               "  psld watch  ADDR:PORT [COUNT]\n"
               "client subcommands also accept --max-frame BYTES (wire payloads,\n"
               "including reload snapshots, are bounded by the frame cap) and\n"
               "--udp (query/ping/stats over the datagram fast path)\n");
  return 2;
}

bool parse_endpoint(std::string_view endpoint, std::string& address, std::uint16_t& port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 == endpoint.size()) {
    return false;
  }
  address = std::string(endpoint.substr(0, colon));
  const std::string port_text(endpoint.substr(colon + 1));
  if (port_text.find_first_not_of("0123456789") != std::string::npos) return false;
  const long parsed = std::atol(port_text.c_str());
  // 0 is legal for --listen (kernel-assigned ephemeral port, printed in the
  // serving banner); connecting to 0 just fails at the socket layer.
  if (parsed < 0 || parsed > 65535) return false;
  port = static_cast<std::uint16_t>(parsed);
  return true;
}

int cmd_compile(const std::string& list_path, const std::string& out_path) {
  std::ifstream in(list_path);
  if (!in) {
    std::fprintf(stderr, "psld: cannot read %s\n", list_path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = psl::List::parse(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "psld: parse error in %s: %s\n", list_path.c_str(),
                 parsed.error().message.c_str());
    return 1;
  }
  psl::snapshot::Metadata meta;
  meta.rule_count = parsed->rules().size();
  auto written = psl::snapshot::write_file(out_path, psl::CompiledMatcher(*parsed), meta);
  if (!written.ok()) {
    std::fprintf(stderr, "psld: snapshot write failed: %s\n", written.error().message.c_str());
    return 1;
  }
  std::printf("wrote %s (%llu bytes, %zu rules)\n", out_path.c_str(),
              static_cast<unsigned long long>(*written), parsed->rules().size());
  return 0;
}

// Client subcommands: --udp (stripped in main, like --max-frame) switches
// query/ping/stats to the datagram fast path.
bool g_client_udp = false;

psl::util::Result<psl::net::Client> connect_to(std::string_view endpoint,
                                               std::size_t max_frame) {
  std::string address;
  std::uint16_t port = 0;
  if (!parse_endpoint(endpoint, address, port)) {
    return psl::util::make_error("net.io", "bad endpoint (want ADDR:PORT): " +
                                               std::string(endpoint));
  }
  psl::net::ClientOptions options;
  options.max_frame_bytes = max_frame;
  return g_client_udp ? psl::net::Client::connect_udp(address, port, options)
                      : psl::net::Client::connect(address, port, options);
}

int cmd_query(std::string_view endpoint, std::vector<std::string> hosts,
              std::size_t max_frame) {
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) {
    std::fprintf(stderr, "psld: %s\n", client.error().message.c_str());
    return 1;
  }
  auto domains = client->registrable_domains(hosts);
  if (!domains.ok()) {
    std::fprintf(stderr, "psld: %s (%s)\n", domains.error().message.c_str(),
                 domains.error().code.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    std::printf("%s %s\n", hosts[i].c_str(),
                (*domains)[i].empty() ? "-" : (*domains)[i].c_str());
  }
  return 0;
}

int cmd_match_at(std::string_view endpoint, const std::string& date_text,
                 std::vector<std::string> hosts, std::size_t max_frame) {
  const auto date = psl::util::Date::parse(date_text);
  if (!date) {
    std::fprintf(stderr, "psld: bad date %s (want YYYY-MM-DD)\n", date_text.c_str());
    return 1;
  }
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) {
    std::fprintf(stderr, "psld: %s\n", client.error().message.c_str());
    return 1;
  }
  auto answer = client->match_at(*date, hosts);
  if (!answer.ok()) {
    std::fprintf(stderr, "psld: %s (%s)\n", answer.error().message.c_str(),
                 answer.error().code.c_str());
    return 1;
  }
  std::printf("version %s (%llu rules)\n",
              psl::util::Date{static_cast<std::int32_t>(answer->version_date_days)}
                  .to_string()
                  .c_str(),
              static_cast<unsigned long long>(answer->rule_count));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto& m = answer->matches[i];
    std::printf("%s %s\n", hosts[i].c_str(),
                m.registrable_domain.empty() ? "-" : m.registrable_domain.c_str());
  }
  return 0;
}

int cmd_divergence(std::string_view endpoint, const std::string& host,
                   std::size_t max_frame) {
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) {
    std::fprintf(stderr, "psld: %s\n", client.error().message.c_str());
    return 1;
  }
  auto ranges = client->divergence(host);
  if (!ranges.ok()) {
    std::fprintf(stderr, "psld: %s (%s)\n", ranges.error().message.c_str(),
                 ranges.error().code.c_str());
    return 1;
  }
  for (const auto& r : *ranges) {
    std::printf("%s..%s %s\n",
                psl::util::Date{static_cast<std::int32_t>(r.first_date_days)}
                    .to_string()
                    .c_str(),
                psl::util::Date{static_cast<std::int32_t>(r.last_date_days)}
                    .to_string()
                    .c_str(),
                r.registrable_domain.empty() ? "-" : r.registrable_domain.c_str());
  }
  return 0;
}

int cmd_ping(std::string_view endpoint, std::size_t max_frame) {
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok() || !client->ping().ok()) return 1;
  std::printf("pong\n");
  return 0;
}

int cmd_stats(std::string_view endpoint, std::size_t max_frame) {
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) return 1;
  auto stats = client->stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "psld: %s\n", stats.error().message.c_str());
    return 1;
  }
  std::printf("generation %llu, %llu rules, %u connections, queue depth %u\n",
              static_cast<unsigned long long>(stats->generation),
              static_cast<unsigned long long>(stats->rule_count), stats->connections,
              stats->queue_depth);
  return 0;
}

// Grep-friendly one-fact-per-line census dump (net_smoke.sh asserts on the
// "census generation"/"census records" lines across a SIGHUP reload).
int cmd_census(std::string_view endpoint, long top_k, std::size_t max_frame) {
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) {
    std::fprintf(stderr, "psld: %s\n", client.error().message.c_str());
    return 1;
  }
  auto census = client->census(static_cast<std::uint32_t>(top_k));
  if (!census.ok()) {
    std::fprintf(stderr, "psld: %s (%s)\n", census.error().message.c_str(),
                 census.error().code.c_str());
    if (census.error().code == "net.unsupported") {
      std::fprintf(stderr, "psld: server runs without --analytics\n");
    }
    return 1;
  }
  std::printf("census generation %llu\n", static_cast<unsigned long long>(census->generation));
  std::printf("census records %llu\n", static_cast<unsigned long long>(census->records));
  std::printf("census first-party %llu\n",
              static_cast<unsigned long long>(census->first_party));
  std::printf("census third-party %llu\n",
              static_cast<unsigned long long>(census->third_party));
  std::printf("census unique-hosts %llu\n",
              static_cast<unsigned long long>(census->unique_hosts));
  std::printf("census sites-formed %llu\n",
              static_cast<unsigned long long>(census->sites_formed));
  std::printf("census misbound-hosts %llu\n",
              static_cast<unsigned long long>(census->misbound_hosts));
  std::printf("census dropped %llu\n", static_cast<unsigned long long>(census->dropped));
  std::printf("census state-bytes %llu\n",
              static_cast<unsigned long long>(census->state_bytes));
  for (const auto& row : census->etlds) {
    std::printf("census etld %s misbound %llu\n", row.etld.c_str(),
                static_cast<unsigned long long>(row.misbound));
  }
  for (const auto& row : census->trackers) {
    std::printf("census tracker %s requests %llu (+-%llu) reach %llu (-%llu)\n",
                row.domain.c_str(), static_cast<unsigned long long>(row.requests),
                static_cast<unsigned long long>(row.requests_err),
                static_cast<unsigned long long>(row.reach),
                static_cast<unsigned long long>(row.reach_err));
  }
  return 0;
}

int cmd_reload(std::string_view endpoint, const std::string& snapshot_path,
               std::size_t max_frame) {
  std::ifstream in(snapshot_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "psld: cannot read %s\n", snapshot_path.c_str());
    return 1;
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string bytes = raw.str();
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) {
    std::fprintf(stderr, "psld: %s\n", client.error().message.c_str());
    return 1;
  }
  auto swapped = client->reload(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  if (!swapped.ok()) {
    std::fprintf(stderr, "psld: %s (%s)\n", swapped.error().message.c_str(),
                 swapped.error().code.c_str());
    if (swapped.error().code == "net.oversize") {
      std::fprintf(stderr, "psld: snapshot exceeds the %zu-byte frame cap; "
                           "raise --max-frame on both psld ends\n", max_frame);
    }
    return 1;
  }
  std::printf("reloaded -> generation %llu\n", static_cast<unsigned long long>(*swapped));
  return 0;
}

// Subscribe and print every pushed generation change — the process never
// sends a query after the subscribe handshake, so each printed line is
// proof of a server-initiated push (what the smoke script asserts on).
// Exits 0 after `count` pushes; count == 0 watches until killed.
int cmd_watch(std::string_view endpoint, long count, std::size_t max_frame) {
  auto client = connect_to(endpoint, max_frame);
  if (!client.ok()) {
    std::fprintf(stderr, "psld: %s\n", client.error().message.c_str());
    return 1;
  }
  long seen = 0;
  client->set_push_callback([&seen](const psl::net::WireGenerationChanged& push) {
    std::printf("psld: pushed generation %llu (%llu rules, delta %+lld)\n",
                static_cast<unsigned long long>(push.generation),
                static_cast<unsigned long long>(push.rule_count),
                static_cast<long long>(push.rule_delta));
    std::fflush(stdout);
    ++seen;
  });
  auto subscribed = client->subscribe();
  if (!subscribed.ok()) {
    std::fprintf(stderr, "psld: subscribe failed: %s (%s)\n",
                 subscribed.error().message.c_str(), subscribed.error().code.c_str());
    return 1;
  }
  std::printf("psld: watching from generation %llu\n",
              static_cast<unsigned long long>(*subscribed));
  std::fflush(stdout);
  while (count == 0 || seen < count) {
    auto drained = client->poll_pushes();
    if (!drained.ok()) {
      std::fprintf(stderr, "psld: watch ended: %s (%s)\n",
                   drained.error().message.c_str(), drained.error().code.c_str());
      return 1;
    }
    if (*drained == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

struct ServeConfig {
  std::string address;
  std::uint16_t port = 0;
  std::string snapshot_path;
  std::string store_path;
  std::size_t threads = 2;
  std::size_t max_conns = 256;
  std::size_t queue_depth = 64;
  std::size_t max_frame = psl::net::kDefaultMaxFrameBytes;
  std::size_t shards = 1;
  psl::net::Backend backend = psl::net::Backend::kAuto;
  bool udp = false;
  bool analytics = false;
};

int cmd_serve(const ServeConfig& cfg) {
  // Signal plumbing comes FIRST — before the (possibly slow) snapshot/store
  // load and before the listener goes live. A supervisor that sends SIGTERM
  // as soon as fork() returns must hit our graceful-drain handler, not the
  // default disposition; with the old post-start() ordering that race killed
  // the process with in-flight connections unflushed.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "psld: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGHUP, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  // Test hook: lets the smoke script widen the handler-installed-but-not-yet-
  // serving window to provoke the old race deterministically.
  if (const char* delay = std::getenv("PSLD_STARTUP_DELAY_MS")) {
    const long ms = std::atol(delay);
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  // One engine under every loop. --threads counts workers per shard (0
  // means 1, as the engine clamps it), so the shared pool has shards x
  // threads of them.
  psl::obs::MetricsRegistry metrics;
  psl::serve::EngineOptions engine_options;
  engine_options.threads = cfg.shards * std::max<std::size_t>(cfg.threads, 1);
  engine_options.max_queue_depth = cfg.queue_depth;
  engine_options.metrics = &metrics;
  if (cfg.analytics) {
    engine_options.census_factory = psl::analytics::census_factory({});
  }
  std::unique_ptr<psl::serve::Engine> engine;
  if (!cfg.store_path.empty()) {
    auto view = psl::store::StoreView::open(cfg.store_path);
    if (!view.ok()) {
      std::fprintf(stderr, "psld: store open failed: %s (%s)\n",
                   view.error().message.c_str(), view.error().code.c_str());
      return 1;
    }
    auto newest = (*view)->open_version((*view)->version_count() - 1);
    if (!newest.ok()) {
      std::fprintf(stderr, "psld: store materialize failed: %s (%s)\n",
                   newest.error().message.c_str(), newest.error().code.c_str());
      return 1;
    }
    engine = std::make_unique<psl::serve::Engine>(*std::move(newest), engine_options);
    engine->adopt_store(*std::move(view));
  } else {
    auto snapshot = psl::snapshot::load_file(cfg.snapshot_path);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "psld: snapshot load failed: %s (%s)\n",
                   snapshot.error().message.c_str(), snapshot.error().code.c_str());
      return 1;
    }
    engine = std::make_unique<psl::serve::Engine>(*std::move(snapshot), engine_options);
  }

  // --shards N: N event loops joined on one port by SO_REUSEPORT. The first
  // loop resolves port 0; the others bind the port it got.
  std::vector<std::unique_ptr<psl::net::Server>> servers;
  std::uint16_t port = cfg.port;
  for (std::size_t i = 0; i < cfg.shards; ++i) {
    psl::net::ServerOptions options;
    options.bind_address = cfg.address;
    options.port = port;
    options.max_connections = cfg.max_conns;
    options.max_frame_bytes = cfg.max_frame;
    options.backend = cfg.backend;
    options.reuse_port = cfg.shards > 1;
    options.enable_udp = cfg.udp;
    options.metrics = &metrics;
    servers.push_back(std::make_unique<psl::net::Server>(*engine, options));
    auto started = servers.back()->start();
    if (!started.ok()) {
      std::fprintf(stderr, "psld: %s\n", started.error().message.c_str());
      return 1;
    }
    port = *started;
  }
  if (cfg.shards > 1) {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      std::printf("psld: shard %zu serving generation %llu on %s:%u (backend %s, pid %d)\n", i,
                  static_cast<unsigned long long>(engine->generation()), cfg.address.c_str(),
                  port, servers[i]->backend_name(), static_cast<int>(::getpid()));
    }
  }

  const std::string shards =
      cfg.shards > 1 ? ", " + std::to_string(cfg.shards) + " shards" : std::string();
  std::printf("psld: serving generation %llu (%llu rules) on %s:%u, %zu workers"
              " (backend %s)%s%s%s%s\n",
              static_cast<unsigned long long>(engine->generation()),
              static_cast<unsigned long long>(engine->metadata().rule_count),
              cfg.address.c_str(), port, engine->worker_count(),
              servers.front()->backend_name(), shards.c_str(),
              cfg.store_path.empty() ? "" : " [store]", cfg.udp ? " [udp]" : "",
              cfg.analytics ? " [analytics]" : "");
  std::fflush(stdout);

  for (;;) {
    std::uint8_t byte = 0;
    const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (byte == 'H') {
      const std::string& reload_path =
          cfg.store_path.empty() ? cfg.snapshot_path : cfg.store_path;
      auto swapped = cfg.store_path.empty() ? engine->reload_file(cfg.snapshot_path)
                                            : engine->open_store(cfg.store_path);
      if (swapped.ok()) {
        std::printf("psld: reloaded %s -> generation %llu\n", reload_path.c_str(),
                    static_cast<unsigned long long>(*swapped));
      } else {
        std::printf("psld: reload rejected (%s), still serving generation %llu\n",
                    swapped.error().code.c_str(),
                    static_cast<unsigned long long>(engine->generation()));
      }
      std::fflush(stdout);
      continue;
    }
    break;  // SIGTERM/SIGINT: drain and exit
  }

  std::printf("psld: draining...\n");
  std::fflush(stdout);
  for (const auto& server : servers) server->shutdown();
  std::fprintf(stderr, "%s\n", psl::obs::to_json(metrics).c_str());
  std::printf("psld: bye\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // --max-frame caps wire payloads in every mode (ServerOptions for serving,
  // ClientOptions for the subcommands), so strip it before dispatch.
  std::size_t max_frame = psl::net::kDefaultMaxFrameBytes;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] != "--max-frame") {
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) {
      std::fprintf(stderr, "psld: --max-frame needs a value\n");
      return 2;
    }
    const long long parsed = std::atoll(args[i + 1].c_str());
    if (parsed < 64) {
      std::fprintf(stderr, "psld: bad --max-frame value: %s\n", args[i + 1].c_str());
      return 2;
    }
    max_frame = static_cast<std::size_t>(parsed);
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
  }
  // --udp is meaningful in both modes: it enables the datagram socket when
  // serving and switches the client subcommands to the datagram fast path.
  bool udp = false;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] != "--udp") {
      ++i;
      continue;
    }
    udp = true;
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
  }
  g_client_udp = udp;
  if (args.empty()) return usage();

  if (args[0] == "compile") {
    return args.size() == 3 ? cmd_compile(args[1], args[2]) : usage();
  }
  if (args[0] == "query") {
    return args.size() >= 3
               ? cmd_query(args[1], {args.begin() + 2, args.end()}, max_frame)
               : usage();
  }
  if (args[0] == "match-at") {
    return args.size() >= 4
               ? cmd_match_at(args[1], args[2], {args.begin() + 3, args.end()}, max_frame)
               : usage();
  }
  if (args[0] == "divergence") {
    return args.size() == 3 ? cmd_divergence(args[1], args[2], max_frame) : usage();
  }
  if (args[0] == "ping") {
    return args.size() == 2 ? cmd_ping(args[1], max_frame) : usage();
  }
  if (args[0] == "stats") {
    return args.size() == 2 ? cmd_stats(args[1], max_frame) : usage();
  }
  if (args[0] == "census") {
    if (args.size() != 2 && args.size() != 3) return usage();
    const long top_k = args.size() == 3 ? std::atol(args[2].c_str()) : 0;
    if (top_k < 0) return usage();
    return cmd_census(args[1], top_k, max_frame);
  }
  if (args[0] == "reload") {
    return args.size() == 3 ? cmd_reload(args[1], args[2], max_frame) : usage();
  }
  if (args[0] == "watch") {
    if (args.size() != 2 && args.size() != 3) return usage();
    const long count = args.size() == 3 ? std::atol(args[2].c_str()) : 0;
    if (count < 0) return usage();
    return cmd_watch(args[1], count, max_frame);
  }

  std::string listen;
  ServeConfig cfg;
  cfg.max_frame = max_frame;
  cfg.udp = udp;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "psld: %s needs a value\n", flag);
        return nullptr;
      }
      return &args[++i];
    };
    if (args[i] == "--listen") {
      const std::string* v = value("--listen");
      if (!v) return 2;
      listen = *v;
    } else if (args[i] == "--snapshot") {
      const std::string* v = value("--snapshot");
      if (!v) return 2;
      cfg.snapshot_path = *v;
    } else if (args[i] == "--store") {
      const std::string* v = value("--store");
      if (!v) return 2;
      cfg.store_path = *v;
    } else if (args[i] == "--threads") {
      const std::string* v = value("--threads");
      if (!v) return 2;
      cfg.threads = static_cast<std::size_t>(std::atol(v->c_str()));
    } else if (args[i] == "--max-conns") {
      const std::string* v = value("--max-conns");
      if (!v) return 2;
      cfg.max_conns = static_cast<std::size_t>(std::atol(v->c_str()));
    } else if (args[i] == "--queue-depth") {
      const std::string* v = value("--queue-depth");
      if (!v) return 2;
      cfg.queue_depth = static_cast<std::size_t>(std::atol(v->c_str()));
    } else if (args[i] == "--shards") {
      const std::string* v = value("--shards");
      if (!v) return 2;
      const long parsed = std::atol(v->c_str());
      if (parsed < 1 || parsed > 64) {
        std::fprintf(stderr, "psld: --shards wants 1..64, got %s\n", v->c_str());
        return 2;
      }
      cfg.shards = static_cast<std::size_t>(parsed);
    } else if (args[i] == "--backend") {
      const std::string* v = value("--backend");
      if (!v) return 2;
      if (*v == "auto") {
        cfg.backend = psl::net::Backend::kAuto;
      } else if (*v == "epoll") {
        cfg.backend = psl::net::Backend::kEpoll;
      } else if (*v == "poll") {
        cfg.backend = psl::net::Backend::kPoll;
      } else {
        std::fprintf(stderr, "psld: unknown --backend %s\n", v->c_str());
        return 2;
      }
    } else if (args[i] == "--analytics") {
      cfg.analytics = true;
    } else {
      std::fprintf(stderr, "psld: unknown argument %s\n", args[i].c_str());
      return usage();
    }
  }
  if (listen.empty() || (cfg.snapshot_path.empty() == cfg.store_path.empty())) {
    return usage();
  }
  if (!parse_endpoint(listen, cfg.address, cfg.port)) {
    std::fprintf(stderr, "psld: bad --listen endpoint (want ADDR:PORT): %s\n",
                 listen.c_str());
    return 2;
  }
  return cmd_serve(cfg);
}
