// Socket-serving throughput ablation: loopback QPS through the full
// client -> PSLN wire protocol -> net::Server -> serve::Engine -> client
// path, across engine-worker count x batch size, plus a reload-under-load
// run that ships ~50 snapshot hot-swaps OVER THE WIRE while client threads
// keep querying (the deployed form of the paper's "update the PSL without
// breaking boundary checks" scenario, §6).
//
// Each cell boots a fresh engine + server on an ephemeral loopback port and
// drives it from a small pool of blocking clients (one connection per
// thread, matching the client library's contract). Results print as a table
// and land machine-readably in BENCH_net.json (with an embedded psl::obs
// metrics snapshot covering net.* and serve.*), which CI archives.
//
// Every measured cell also reports round-trip latency percentiles
// (p50/p90/p99/p999 per batch round trip) beside its throughput, in the
// table and in the JSON.
//
// Usage: bench_net_qps [--smoke] [--shards N] [queries_per_cell] [max_threads]
//   --smoke           tiny fixed workload for CI (2000 queries/cell, 2
//                     threads) — exercises every path, settles in seconds
//   --shards N        SO_REUSEPORT scale-out mode instead of the ablation:
//                     1 forked server process vs N on one shared port,
//                     asserting the N=2 fleet clears 1.5x the single-process
//                     qps when the machine has >= 2 cores per shard (skips
//                     loudly otherwise); writes BENCH_net_shards.json
//   queries_per_cell  queries measured per (threads, batch) cell
//                     (default 100000; 20000 in --smoke --shards)
//   max_threads       highest engine worker count tried (default
//                     hardware_concurrency)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "psl/net/client.hpp"
#include "psl/net/server.hpp"
#include "psl/obs/json.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/date.hpp"
#include "psl/util/namegen.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/strings.hpp"
#include "psl/util/table.hpp"
#include "psl/util/zipf.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Same workload recipe as bench_serve_qps, so the delta between the two
/// binaries is exactly the socket + framing overhead.
std::vector<std::string> host_mix(const psl::List& list) {
  psl::util::Rng rng(7);
  psl::util::NameGen names{rng.fork(1)};
  const auto& rules = list.rules();
  std::vector<std::string> out;
  out.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    std::string host = names.fresh();
    if (rng.chance(0.5)) {
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
    if (rng.chance(0.4)) host = "www." + host;
    out.push_back(std::move(host));
  }
  return out;
}

psl::snapshot::Snapshot snapshot_of(const psl::List& list, psl::util::Date source_date) {
  psl::snapshot::Metadata meta;
  meta.source_date = source_date;
  meta.rule_count = list.rules().size();
  const std::string bytes = psl::snapshot::serialize(psl::CompiledMatcher(list), meta);
  auto loaded = psl::snapshot::load_copy(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  if (!loaded.ok()) {
    std::cerr << "snapshot self-load failed: " << loaded.error().message << "\n";
    std::exit(2);
  }
  return *std::move(loaded);
}

/// Round-trip latency percentiles, in milliseconds. One sample = one batch
/// round trip (send -> engine -> full response parsed), the unit a caller
/// actually waits on; batch size is reported beside them so nobody compares
/// a batch-1 p99 against a batch-4096 p99 by accident.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

Percentiles percentiles_of(std::vector<double>& samples_ms) {
  Percentiles out;
  if (samples_ms.empty()) return out;
  std::sort(samples_ms.begin(), samples_ms.end());
  const auto at = [&](double q) {
    const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(samples_ms.size()));
    return samples_ms[std::min(samples_ms.size() - 1, rank)];
  };
  out.p50 = at(0.50);
  out.p90 = at(0.90);
  out.p99 = at(0.99);
  out.p999 = at(0.999);
  return out;
}

struct Cell {
  std::size_t threads = 0;
  std::size_t batch = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  Percentiles latency;
};

/// One blocking client on its own connection, sending `total` queries in
/// batches of `batch`. Backpressure rejections are retried (the wire-level
/// reject leaves the connection usable — that is the contract under test);
/// the retried round trip is timed as ONE sample including the backoff, the
/// latency a real caller would see. `latencies_ms` (optional) receives one
/// sample per batch.
void client_worker(std::uint16_t port, const std::vector<std::string>& hosts,
                   std::size_t total, std::size_t batch, std::atomic<bool>& failed,
                   std::vector<double>* latencies_ms = nullptr) {
  auto client = psl::net::Client::connect("127.0.0.1", port);
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.error().message << "\n";
    failed = true;
    return;
  }
  if (latencies_ms) latencies_ms->reserve(total / std::max<std::size_t>(1, batch) + 1);
  std::vector<std::string> request;
  request.reserve(batch);
  std::size_t sent = 0;
  std::size_t host_index = 0;
  while (sent < total) {
    request.clear();
    const std::size_t n = std::min(batch, total - sent);
    for (std::size_t i = 0; i < n; ++i) request.push_back(hosts[host_index++ & 4095]);
    const auto t0 = Clock::now();
    for (;;) {
      auto answers = client->registrable_domains(request);
      if (answers.ok()) {
        if (answers->size() != n) {
          std::cerr << "short batch: " << answers->size() << " of " << n << "\n";
          failed = true;
          return;
        }
        break;
      }
      if (answers.error().code == "net.backpressure") {
        std::this_thread::yield();
        continue;
      }
      std::cerr << "query failed: " << answers.error().message << " ("
                << answers.error().code << ")\n";
      failed = true;
      return;
    }
    if (latencies_ms) {
      latencies_ms->push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
    sent += n;
  }
}

/// Boot engine + server, split `total` across `clients` connections, return
/// wall ms for the whole run.
/// Drive `total` queries split over `clients` connections against `port`;
/// returns wall ms and (optionally) the merged round-trip percentiles.
double drive_clients(std::uint16_t port, const std::vector<std::string>& hosts,
                     std::size_t clients, std::size_t total, std::size_t batch,
                     Percentiles* latency_out) {
  std::atomic<bool> failed{false};
  const std::size_t per_client = (total + clients - 1) / clients;
  std::vector<std::vector<double>> latencies(clients);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t share = std::min(per_client, total - std::min(total, c * per_client));
    if (share == 0) break;
    pool.emplace_back(client_worker, port, std::cref(hosts), share, batch,
                      std::ref(failed), latency_out ? &latencies[c] : nullptr);
  }
  for (std::thread& t : pool) t.join();
  const auto t1 = Clock::now();
  if (failed) std::exit(2);
  if (latency_out) {
    std::vector<double> merged;
    for (auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());
    *latency_out = percentiles_of(merged);
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double run_cell(const psl::snapshot::Snapshot& seed, const std::vector<std::string>& hosts,
                std::size_t engine_threads, std::size_t clients, std::size_t total,
                std::size_t batch, psl::obs::MetricsRegistry* metrics,
                std::size_t cache_slots = 16384, Percentiles* latency_out = nullptr) {
  psl::serve::Engine engine(psl::snapshot::Snapshot{seed.matcher, seed.meta},
                            {.threads = engine_threads,
                             .max_queue_depth = 1024,
                             .cache_slots = cache_slots,
                             .metrics = metrics});
  psl::net::ServerOptions options;
  options.metrics = metrics;
  psl::net::Server server(engine, options);
  auto port = server.start();
  if (!port.ok()) {
    std::cerr << "server start failed: " << port.error().message << "\n";
    std::exit(2);
  }
  const double wall_ms = drive_clients(*port, hosts, clients, total, batch, latency_out);
  server.shutdown();
  return wall_ms;
}

// --- SO_REUSEPORT shard scaling (bench_net_qps --shards N) ------------------
//
// Kernel load-balancing measured across processes: N forked server
// processes (each its own engine + event loop) bind one port via
// SO_REUSEPORT, and the kernel spreads client connections across them.
// psld --shards is not this: it runs N loops over ONE engine in one process
// (bench/layers measures that as the fleet.shards2 row). Baseline is the
// same setup with ONE process, so the ratio isolates what N processes buy.

/// Bind a SO_REUSEPORT placeholder to pick the group's ephemeral port (never
/// listens, so it receives nothing). Returns the fd; fills `port`.
int reserve_reuseport_port(std::uint16_t& port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port = ntohs(addr.sin_port);
  return fd;
}

/// One forked shard: boot engine + server on the shared port, report 'R' (or
/// 'E') on ready_fd, then serve until exit_fd closes. Runs in a child
/// process; the return value becomes the child's exit status.
int shard_child_main(const std::string& snap_bytes, std::uint16_t port, int ready_fd,
                     int exit_fd) {
  auto loaded = psl::snapshot::load_copy(
      {reinterpret_cast<const std::uint8_t*>(snap_bytes.data()), snap_bytes.size()});
  if (!loaded.ok()) {
    (void)!::write(ready_fd, "E", 1);
    return 2;
  }
  psl::serve::Engine engine(*std::move(loaded),
                            {.threads = 2, .max_queue_depth = 1024, .cache_slots = 16384});
  psl::net::ServerOptions options;
  options.port = port;
  options.reuse_port = true;
  psl::net::Server server(engine, options);
  auto started = server.start();
  if (!started.ok()) {
    (void)!::write(ready_fd, "E", 1);
    return 2;
  }
  (void)!::write(ready_fd, "R", 1);
  ::close(ready_fd);
  std::uint8_t byte = 0;
  while (::read(exit_fd, &byte, 1) < 0 && errno == EINTR) {
  }
  server.shutdown();
  return 0;
}

/// Boot `shards` forked servers on one SO_REUSEPORT port, drive the client
/// pool from this process, tear the fleet down. Exits the bench on any
/// failure (a half-ready fleet measures nothing).
double run_sharded_cell(const std::string& snap_bytes, const std::vector<std::string>& hosts,
                        std::size_t shards, std::size_t clients, std::size_t total,
                        std::size_t batch, Percentiles* latency_out) {
  std::uint16_t port = 0;
  const int placeholder = reserve_reuseport_port(port);
  if (placeholder < 0) {
    std::cerr << "port reservation failed: " << std::strerror(errno) << "\n";
    std::exit(2);
  }
  std::vector<pid_t> pids;
  std::vector<int> exit_fds;
  for (std::size_t s = 0; s < shards; ++s) {
    int ready[2], exitp[2];
    if (::pipe(ready) != 0 || ::pipe(exitp) != 0) {
      std::cerr << "pipe failed\n";
      std::exit(2);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "fork failed\n";
      std::exit(2);
    }
    if (pid == 0) {
      ::close(placeholder);
      ::close(ready[0]);
      ::close(exitp[1]);
      for (const int fd : exit_fds) ::close(fd);  // siblings' exit pipes
      ::_exit(shard_child_main(snap_bytes, port, ready[1], exitp[0]));
    }
    ::close(ready[1]);
    ::close(exitp[0]);
    std::uint8_t byte = 0;
    if (::read(ready[0], &byte, 1) != 1 || byte != 'R') {
      std::cerr << "shard " << s << " failed to start\n";
      std::exit(2);
    }
    ::close(ready[0]);
    pids.push_back(pid);
    exit_fds.push_back(exitp[1]);
  }

  const double wall_ms = drive_clients(port, hosts, clients, total, batch, latency_out);

  for (const int fd : exit_fds) ::close(fd);  // each shard's read() returns 0
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "shard exited abnormally\n";
      std::exit(2);
    }
  }
  ::close(placeholder);
  return wall_ms;
}

/// The --shards entry point: 1-process baseline vs N-process fleet, same
/// total work, percentiles for both; asserts the >= 1.5x scaling floor when
/// the machine has the cores to honor it (>= 2 per shard — a 1-core CI
/// runner proves nothing about scale-out and skips loudly instead of
/// flaking).
int run_shard_scaling(std::size_t shards, bool smoke, std::size_t queries) {
  const psl::history::History& history = psl::bench::full_history();
  const psl::List& list = history.latest();
  const psl::util::Date latest_date = history.version_date(history.version_count() - 1);
  const std::vector<std::string> hosts = host_mix(list);
  const std::string snap_bytes = psl::snapshot::serialize(
      psl::CompiledMatcher(list), {latest_date, list.rules().size()});
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t clients = std::max<std::size_t>(8, 4 * shards);
  const std::size_t batch = 16;

  std::cout << "=== SO_REUSEPORT shard scaling: 1 process vs " << shards
            << " processes on one port ===\n";
  std::cout << "rules: " << list.rules().size() << ", queries: " << queries
            << ", client connections: " << clients << ", batch: " << batch
            << ", hardware threads: " << hardware << "\n\n";

  Percentiles base_lat, shard_lat;
  const double base_ms =
      run_sharded_cell(snap_bytes, hosts, 1, clients, queries, batch, &base_lat);
  const double shard_ms =
      run_sharded_cell(snap_bytes, hosts, shards, clients, queries, batch, &shard_lat);
  const double base_qps = static_cast<double>(queries) / (base_ms / 1000.0);
  const double shard_qps = static_cast<double>(queries) / (shard_ms / 1000.0);
  const double speedup = shard_qps / base_qps;

  psl::util::TextTable table(
      {"shards", "wall time", "queries/sec", "p50", "p90", "p99", "p999"});
  const auto row = [&](std::size_t n, double wall, double qps, const Percentiles& p) {
    table.add_row({std::to_string(n), psl::util::fmt_double(wall, 0) + " ms",
                   psl::util::fmt_double(qps, 0), psl::util::fmt_double(p.p50, 3) + " ms",
                   psl::util::fmt_double(p.p90, 3) + " ms",
                   psl::util::fmt_double(p.p99, 3) + " ms",
                   psl::util::fmt_double(p.p999, 3) + " ms"});
  };
  row(1, base_ms, base_qps, base_lat);
  row(shards, shard_ms, shard_qps, shard_lat);
  table.print(std::cout);
  std::cout << "\nspeedup: " << psl::util::fmt_double(speedup, 2) << "x\n";

  const bool enough_cores = hardware >= 2 * shards;
  const char* assertion = "skipped";
  int rc = 0;
  if (!enough_cores) {
    std::cout << "scaling assertion skipped: " << hardware << " hardware threads < "
              << 2 * shards << " (need 2 per shard)\n";
  } else if (speedup < 1.5) {
    std::cout << "SCALING ASSERTION FAILED: " << psl::util::fmt_double(speedup, 2)
              << "x < 1.5x with " << shards << " shards\n";
    assertion = "failed";
    rc = 1;
  } else {
    assertion = "passed";
  }

  std::ofstream json("BENCH_net_shards.json");
  const auto emit = [&](const char* key, std::size_t n, double wall, double qps,
                        const Percentiles& p, const char* tail) {
    json << "  \"" << key << "\": {\"shards\": " << n
         << ", \"wall_ms\": " << psl::util::fmt_double(wall, 2)
         << ", \"qps\": " << psl::util::fmt_double(qps, 1)
         << ", \"p50_ms\": " << psl::util::fmt_double(p.p50, 4)
         << ", \"p90_ms\": " << psl::util::fmt_double(p.p90, 4)
         << ", \"p99_ms\": " << psl::util::fmt_double(p.p99, 4)
         << ", \"p999_ms\": " << psl::util::fmt_double(p.p999, 4) << "}" << tail << "\n";
  };
  json << "{\n";
  json << "  \"queries\": " << queries << ",\n";
  json << "  \"client_connections\": " << clients << ",\n";
  json << "  \"batch_size\": " << batch << ",\n";
  json << "  \"hardware_threads\": " << hardware << ",\n";
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  emit("baseline", 1, base_ms, base_qps, base_lat, ",");
  emit("sharded", shards, shard_ms, shard_qps, shard_lat, ",");
  json << "  \"speedup\": " << psl::util::fmt_double(speedup, 3) << ",\n";
  json << "  \"scaling_assertion\": \"" << assertion << "\"\n";
  json << "}\n";
  std::cout << "wrote BENCH_net_shards.json\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t shards = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else {
      positional.push_back(argv[i]);
    }
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::size_t queries_per_cell = smoke ? 2000 : 100000;
  unsigned max_threads = smoke ? 2u : hardware;
  if (positional.size() > 0) {
    queries_per_cell = static_cast<std::size_t>(std::atol(positional[0]));
  }
  if (positional.size() > 1) max_threads = static_cast<unsigned>(std::atoi(positional[1]));
  if (queries_per_cell < 1 || max_threads < 1 || shards > 64) {
    std::cerr << "usage: bench_net_qps [--smoke] [--shards N] [queries_per_cell >= 1]"
                 " [max_threads >= 1]\n";
    return 2;
  }
  if (shards > 0) {
    // Shard mode replaces the ablation: it measures process scale-out, not
    // worker scale-up, and writes its own BENCH_net_shards.json.
    return run_shard_scaling(shards, smoke, positional.empty() ? (smoke ? 20000 : 200000)
                                                               : queries_per_cell);
  }

  const psl::history::History& history = psl::bench::full_history();
  const psl::List& list = history.latest();
  const psl::util::Date latest_date = history.version_date(history.version_count() - 1);
  const std::vector<std::string> hosts = host_mix(list);
  const psl::snapshot::Snapshot seed = snapshot_of(list, latest_date);
  const std::size_t clients = smoke ? 2 : 4;

  std::cout << "=== psl::net loopback: engine threads x batch-size QPS ablation ===\n";
  std::cout << "rules: " << list.rules().size() << ", queries/cell: " << queries_per_cell
            << ", client connections: " << clients << ", hardware threads: " << hardware
            << "\n\n";

  std::vector<std::size_t> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{1, 256} : std::vector<std::size_t>{1, 16, 256, 4096};

  std::vector<Cell> cells;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t batch : batch_sizes) {
      Cell cell;
      cell.threads = threads;
      cell.batch = batch;
      cell.wall_ms = run_cell(seed, hosts, threads, clients, queries_per_cell, batch, nullptr,
                              16384, &cell.latency);
      cell.qps = static_cast<double>(queries_per_cell) / (cell.wall_ms / 1000.0);
      cells.push_back(cell);
    }
  }

  psl::util::TextTable table({"engine threads", "batch size", "wall time", "queries/sec",
                              "p50", "p99", "p999"});
  for (const Cell& cell : cells) {
    table.add_row({std::to_string(cell.threads), std::to_string(cell.batch),
                   psl::util::fmt_double(cell.wall_ms, 0) + " ms",
                   psl::util::fmt_double(cell.qps, 0),
                   psl::util::fmt_double(cell.latency.p50, 3) + " ms",
                   psl::util::fmt_double(cell.latency.p99, 3) + " ms",
                   psl::util::fmt_double(cell.latency.p999, 3) + " ms"});
  }
  table.print(std::cout);

  // --- cached vs uncached over the wire on a Zipf-skewed stream ------------
  // Same construction as bench_serve_qps's comparison, but end to end
  // through the socket path: the delta isolates what the per-worker
  // registrable-domain caches buy a deployed daemon under realistic skew.
  std::vector<std::string> zipf_stream;
  {
    psl::util::Rng zrng(11);
    const psl::util::ZipfSampler zipf(hosts.size(), 1.0);
    zipf_stream.reserve(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      zipf_stream.push_back(hosts[zipf.sample(zrng)]);
    }
  }
  struct CacheCell {
    bool cached = false;
    std::size_t batch = 0;
    double wall_ms = 0.0;
    double qps = 0.0;
  };
  std::vector<CacheCell> cache_cells;
  const std::size_t cache_threads = std::min<std::size_t>(4, max_threads);
  const std::vector<std::size_t> cache_batches =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 256};
  for (const std::size_t batch : cache_batches) {
    for (const bool cached : {false, true}) {
      CacheCell cell;
      cell.cached = cached;
      cell.batch = batch;
      cell.wall_ms = run_cell(seed, zipf_stream, cache_threads, clients, queries_per_cell,
                              batch, nullptr, cached ? 16384 : 0);
      cell.qps = static_cast<double>(queries_per_cell) / (cell.wall_ms / 1000.0);
      cache_cells.push_back(cell);
    }
  }
  std::cout << "\n=== Zipf-skewed wire stream (s=1.0): registrable-domain cache on/off ===\n";
  psl::util::TextTable cache_table({"batch size", "cache", "wall time", "queries/sec"});
  for (const CacheCell& cell : cache_cells) {
    cache_table.add_row({std::to_string(cell.batch), cell.cached ? "on" : "off",
                         psl::util::fmt_double(cell.wall_ms, 0) + " ms",
                         psl::util::fmt_double(cell.qps, 0)});
  }
  cache_table.print(std::cout);

  // --- reload-under-load: wire-level hot swaps racing wire-level queries ---
  // A dedicated reloader CONNECTION ships alternating snapshot versions via
  // the reload frame type while the client pool keeps querying; the final
  // generation proves every swap landed exactly once.
  const std::size_t previous_index =
      history.version_count() >= 2 ? history.version_count() - 2 : 0;
  const psl::List previous = history.snapshot(previous_index);
  const psl::util::Date previous_date = history.version_date(previous_index);
  const std::string bytes_now =
      psl::snapshot::serialize(psl::CompiledMatcher(list), {latest_date, list.rules().size()});
  const std::string bytes_prev = psl::snapshot::serialize(
      psl::CompiledMatcher(previous), {previous_date, previous.rules().size()});

  psl::obs::MetricsRegistry metrics;
  const std::size_t reload_threads = std::max<std::size_t>(2, max_threads);
  const std::size_t reload_batch = 256;
  constexpr int kReloads = 50;
  double reload_wall_ms = 0.0;
  std::uint64_t reload_generation = 0;
  {
    psl::serve::Engine engine(
        psl::snapshot::Snapshot{seed.matcher, seed.meta},
        {.threads = reload_threads, .max_queue_depth = 1024, .metrics = &metrics});
    psl::net::ServerOptions options;
    options.metrics = &metrics;
    psl::net::Server server(engine, options);
    auto port = server.start();
    if (!port.ok()) {
      std::cerr << "server start failed: " << port.error().message << "\n";
      return 2;
    }

    std::atomic<bool> failed{false};
    std::thread reloader([&] {
      auto client = psl::net::Client::connect("127.0.0.1", *port);
      if (!client.ok()) {
        failed = true;
        return;
      }
      for (int i = 0; i < kReloads; ++i) {
        const std::string& bytes = i % 2 == 0 ? bytes_prev : bytes_now;
        auto swapped = client->reload(
            {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
        if (!swapped.ok()) {
          std::cerr << "wire reload failed: " << swapped.error().message << "\n";
          failed = true;
          return;
        }
        std::this_thread::yield();
      }
    });

    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    const std::size_t per_client = (queries_per_cell + clients - 1) / clients;
    for (std::size_t c = 0; c < clients; ++c) {
      const std::size_t share =
          std::min(per_client, queries_per_cell - std::min(queries_per_cell, c * per_client));
      if (share == 0) break;
      pool.emplace_back(client_worker, *port, std::cref(hosts), share, reload_batch,
                        std::ref(failed), nullptr);
    }
    for (std::thread& t : pool) t.join();
    reload_wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    reloader.join();
    reload_generation = engine.generation();
    server.shutdown();
    if (failed) return 2;
  }
  const double reload_qps = static_cast<double>(queries_per_cell) / (reload_wall_ms / 1000.0);

  std::cout << "\nreload-under-load (" << reload_threads << " engine threads, batch "
            << reload_batch << "): " << kReloads << " wire hot swaps, "
            << psl::util::fmt_double(reload_qps, 0) << " queries/sec, final generation "
            << reload_generation << "\n";
  if (reload_generation != 1u + kReloads) {
    std::cout << "GENERATION MISMATCH: expected " << (1u + kReloads) << "\n";
    return 1;
  }

  std::ofstream json("BENCH_net.json");
  json << "{\n";
  json << "  \"rule_count\": " << list.rules().size() << ",\n";
  json << "  \"queries_per_cell\": " << queries_per_cell << ",\n";
  json << "  \"client_connections\": " << clients << ",\n";
  json << "  \"hardware_threads\": " << hardware << ",\n";
  json << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    json << "    {\"threads\": " << cell.threads << ", \"batch_size\": " << cell.batch
         << ", \"wall_ms\": " << psl::util::fmt_double(cell.wall_ms, 2)
         << ", \"qps\": " << psl::util::fmt_double(cell.qps, 1)
         << ", \"p50_ms\": " << psl::util::fmt_double(cell.latency.p50, 4)
         << ", \"p90_ms\": " << psl::util::fmt_double(cell.latency.p90, 4)
         << ", \"p99_ms\": " << psl::util::fmt_double(cell.latency.p99, 4)
         << ", \"p999_ms\": " << psl::util::fmt_double(cell.latency.p999, 4) << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"zipf_cache_comparison\": [\n";
  for (std::size_t i = 0; i < cache_cells.size(); ++i) {
    const CacheCell& cell = cache_cells[i];
    json << "    {\"threads\": " << cache_threads << ", \"batch_size\": " << cell.batch
         << ", \"cached\": " << (cell.cached ? "true" : "false")
         << ", \"wall_ms\": " << psl::util::fmt_double(cell.wall_ms, 2)
         << ", \"qps\": " << psl::util::fmt_double(cell.qps, 1) << "}"
         << (i + 1 < cache_cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"reload_under_load\": {\"threads\": " << reload_threads
       << ", \"batch_size\": " << reload_batch << ", \"reloads\": " << kReloads
       << ", \"wall_ms\": " << psl::util::fmt_double(reload_wall_ms, 2)
       << ", \"qps\": " << psl::util::fmt_double(reload_qps, 1)
       << ", \"final_generation\": " << reload_generation << "},\n";
  json << "  \"metrics\": " << psl::obs::to_json(metrics) << ",\n";
  psl::bench::emit_bench_delta(json);
  json << "\n}\n";
  std::cout << "wrote BENCH_net.json\n";
  return 0;
}
