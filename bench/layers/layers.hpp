// bench_layers: one seeded workload model driven through psld end to end
// (a child process over loopback) and, in a separate traced run, through
// each layer's public functions in turn. See README.md for the workloads,
// the metrics and how to read the ladder.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "psl/history/history.hpp"
#include "psl/net/frame.hpp"
#include "psl/psl/list.hpp"
#include "psl/util/result.hpp"

namespace psl::bench::layers {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// --- statistics --------------------------------------------------------------

/// Percentiles of one sample set, with its size beside them.
struct Dist {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};
Dist dist_of(std::span<const double> samples);

// --- tracing -----------------------------------------------------------------

/// Spans recorded around calls into each layer, kept in memory and written
/// out once at exit. A span's parent is the span that caused it; spans of one
/// wire request share its id. At most kMaxSpansPerRow are kept per row.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpansPerRow = 100000;

  /// Start a row; its root span id is the returned handle's parent for
  /// every span added under it.
  std::size_t open_row(std::string name);
  void add(std::size_t row, std::uint64_t id, std::uint64_t parent, Clock::time_point start,
           Clock::time_point end);
  /// A fresh span id (never 0; 0 means "no parent").
  std::uint64_t next_id() { return ++last_id_; }
  std::uint64_t root_of(std::size_t row) const { return rows_[row].root; }

  /// {"epoch": "steady_clock", "rows": [{"name", "root", "spans": [[id, parent,
  /// start_ns, dur_ns], ...], "dropped"}]}
  void write_json(std::ostream& out) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  struct Row {
    std::string name;
    std::uint64_t root = 0;
    std::vector<Span> spans;
    std::size_t dropped = 0;
  };
  std::vector<Row> rows_;
  std::uint64_t last_id_ = 0;
};

// --- workloads -----------------------------------------------------------------

enum class Workload { kZipfHot, kColdFlood, kSingleUdp, kTimeTravel, kMixedRw };
inline constexpr Workload kAllWorkloads[] = {Workload::kZipfHot, Workload::kColdFlood,
                                             Workload::kSingleUdp, Workload::kTimeTravel,
                                             Workload::kMixedRw};
const char* name_of(Workload w);
std::optional<Workload> parse_workload(std::string_view name);
/// One line on how the workload loads psld (closed or open loop, shape).
const char* loop_of(Workload w);

/// Offered rate of the single_udp open loop, datagrams per second. Far below
/// psld's UDP capacity (~190k/s on a 4-core x86-64 box): one generator
/// thread cannot offer more than ~100k/s within its busy guard, and from
/// ~20k/s on, millisecond scheduling stalls overflow psld's default socket
/// buffer and lose datagrams (README.md, "The UDP rate").
inline constexpr double kUdpRate = 10000.0;
/// A UDP reply later than this after its due time counts as lost.
inline constexpr double kUdpTimeoutS = 0.100;

/// Input sizes; --smoke shrinks them so the five workloads settle in seconds.
struct Scale {
  bool smoke = false;
  std::size_t flood_hosts = 1000000;
  std::size_t tcp_requests = 1024;        ///< match_batch pool (256 hosts each)
  std::size_t stream_hosts = 262144;      ///< Zipf draws for the UDP stream
  std::size_t match_at_requests = 2048;   ///< time_travel pool (64 hosts each)
  std::size_t same_site_per_second = 32;  ///< mixed_rw requests per churn second
  std::size_t ingest_requests = 32;       ///< mixed_rw ingest pool (1,024 records)

  static Scale for_smoke();
};

/// How a response is checked.
enum class Check : std::uint8_t {
  kExact,      ///< payload equals `expect` (or `expect_alt`) byte for byte
  kIngestAck,  ///< ok status, every record accepted
  kReloadAck,  ///< ok status and a generation
  kCensus,     ///< ok status and a census body that parses
};

/// One precomputed wire request and what a correct psld answers.
struct Request {
  net::FrameType type = net::FrameType::kPing;
  Check check = Check::kExact;
  std::uint32_t units = 0;  ///< hosts, pairs or records the request carries
  std::vector<std::uint8_t> payload;
  /// Expected response payload, status byte included. For same_site under
  /// mixed_rw's reloads, `expect` holds the newest list's answers and
  /// `expect_alt` the previous list's; a batch must equal one of them whole.
  std::vector<std::uint8_t> expect;
  std::vector<std::uint8_t> expect_alt;
};

/// The list data psld serves: the synthetic PSL history (fixed; it stands
/// in for the real list's git history) and the multi-version store built
/// over it, cached in the fixture directory across invocations.
struct Fixture {
  history::History history;
  std::string dir;
  std::string store_path;
  double store_build_s = 0.0;  ///< 0 when the store was reused
  double store_file_mib = 0.0;
};
/// Exits the process on failure: no workload can run without its list.
Fixture make_fixture(bool tiny, const std::string& dir);

/// One connection's traffic. A closed lane keeps `depth` requests in flight
/// and sends the next one as each answer arrives; a timed lane sends one
/// request per `period_s` tick whatever happens (next() may return null to
/// skip a tick).
struct Lane {
  std::function<const Request*(double elapsed_s)> next;
  std::size_t depth = 1;
  double period_s = 0.0;
};

/// Everything a workload sends, generated from the seed with its oracle
/// answers before any clock starts.
struct Inputs {
  Workload workload = Workload::kZipfHot;
  net::FrameType primary = net::FrameType::kMatchBatch;  ///< timed for p50/p99
  bool uses_store = false;              ///< psld --store instead of --snapshot
  std::vector<std::string> psld_flags;  ///< --udp, --analytics
  // Traffic. Pools are shared by lanes; `order` is the UDP visit order.
  std::vector<Request> pool;
  std::vector<std::vector<Request>> buckets;  ///< mixed_rw same_site, per churn second
  std::vector<Request> side_pool;             ///< mixed_rw ingest / control requests
  std::vector<std::uint32_t> order;
  /// The hosts the workload sends, in stream order, for the in-process
  /// ladder (pairs are (hosts[2i], hosts[2i+1])). Views into `storage`.
  std::vector<std::string_view> hosts;
  std::vector<std::string> storage;
};
Inputs make_inputs(Workload w, std::uint64_t seed, const Fixture& fixture, const Scale& scale,
                   double horizon_s);
/// The connections a workload opens against psld, over `inputs`' pools.
std::vector<Lane> lanes_of(const Inputs& inputs);
/// `conns` closed lanes with `depth` in flight each, cycling `pool` from
/// evenly spaced starting points.
std::vector<Lane> closed_lanes(const std::vector<Request>& pool, std::size_t conns,
                               std::size_t depth);
/// match_batch requests of `per_request` consecutive hosts (at most
/// `max_requests`), each with List::match's answer.
std::vector<Request> match_pool(const List& list, std::span<const std::string_view> hosts,
                                std::size_t per_request, std::size_t max_requests);

// --- psld ----------------------------------------------------------------------

/// CPU placement: psld runs on every allowed CPU but the last and the load
/// generator on the last, so the generator never takes a core from psld.
/// Pins the calling thread (and whatever it spawns) for its lifetime; a
/// no-op with fewer than 2 CPUs.
class Pin {
 public:
  enum class Side { kServer, kGenerator };
  explicit Pin(Side side);
  ~Pin();
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  std::vector<unsigned char> saved_;  ///< the thread's cpu_set_t before pinning
};

/// A psld child process serving on an ephemeral loopback port. start()
/// returns once psld has answered its first ping.
class Psld {
 public:
  static util::Result<Psld> start(const std::string& binary, std::vector<std::string> args);
  Psld(Psld&& other) noexcept;
  Psld& operator=(Psld&& other) = delete;
  Psld(const Psld&) = delete;
  Psld& operator=(const Psld&) = delete;
  ~Psld();  ///< SIGKILL and reap if stop() was not called

  std::uint16_t port() const noexcept { return port_; }
  const std::string& backend() const noexcept { return backend_; }
  /// Peak resident set (VmHWM) summed over the serving processes, MiB.
  double peak_rss_mib() const;
  /// SIGTERM, drain, reap. Returns psld's standard error, which ends with
  /// its exit-time metrics JSON (one per shard under --shards).
  util::Result<std::string> stop();

 private:
  Psld() = default;
  pid_t pid_ = -1;
  std::vector<pid_t> servers_;  ///< processes that hold engines
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string backend_;
  std::string err_text_;
};

/// Sum of every `"name": <number>` occurrence in psld's metrics dump.
double metric_sum(const std::string& metrics_text, std::string_view name);

/// What a load left behind in psld: peak RSS before SIGTERM and the
/// exit-time metrics dump.
struct Served {
  double rss_mib = 0.0;
  std::string metrics;
};
/// Run `load` against `psld`, read its peak RSS, stop it.
util::Result<Served> load_and_stop(Psld psld, const std::function<void(std::uint16_t)>& load);

// --- load generation -----------------------------------------------------------

struct TypeStats {
  std::vector<double> latency_us;
  std::uint64_t ok = 0;
  std::uint64_t units = 0;  ///< hosts (pairs, records) answered correctly
  /// The same per one-second slice of the window.
  std::vector<std::vector<double>> slice_latency_us;
  std::vector<std::uint64_t> slice_units;
};

/// What one load run saw inside its measured window.
struct WireResult {
  std::map<net::FrameType, TypeStats> types;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< wrong answers
  std::uint64_t transport_errors = 0;
  std::uint64_t timeouts = 0;  ///< UDP replies later than kUdpTimeoutS
  std::uint64_t sent = 0;      ///< UDP datagrams sent in the window
  double window_s = 0.0;       ///< as measured
  std::vector<double> slice_s;  ///< each one-second slice's measured length
  double busy_ratio = 0.0;       ///< generator thread CPU time / wall time
  double late_p99_us = 0.0;
  std::size_t late_samples = 0;  ///< scheduled sends behind late_p99_us
  std::string first_error;

  double units_per_s(net::FrameType t) const;
  Dist latency(net::FrameType t) const;
  /// The best one-second slice: its rate, and each latency percentile's
  /// lowest slice value (n = all samples). Interference from other work on
  /// the machine only ever slows a second down, so the best second is the
  /// steadiest estimate of what psld itself can do.
  double best_units_per_s(net::FrameType t) const;
  Dist best_latency(net::FrameType t) const;

 private:
  bool counts(std::size_t slice) const;
};

/// Closed/timed TCP lanes, one connection each, from this thread.
WireResult run_tcp(std::uint16_t port, std::vector<Lane> lanes, double warmup_s,
                   double window_s, SpanLog* trace, std::size_t trace_row);
/// Open loop: 1 request per datagram at `rate`/s over 4 sockets, visiting
/// `pool` in `order`. Latency counts from each datagram's due time.
WireResult run_udp(std::uint16_t port, const std::vector<Request>& pool,
                   const std::vector<std::uint32_t>& order, double rate, double warmup_s,
                   double window_s, SpanLog* trace, std::size_t trace_row);

/// The generator guards: a run is invalid when the load thread was the
/// bottleneck (busy > 0.9) or fell behind its schedule (late p99 > 1 ms,
/// judged once the p99 has ten samples beyond it).
bool generator_ok(const WireResult& r, std::string& why);

// --- report ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = false;
};

/// One ledger row: a layer measured on one workload's inputs.
struct Row {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t units = 0;  ///< hosts (records) the calls carried
  double seconds = 0.0;
  Dist us;  ///< per call
  std::vector<Metric> metrics;
  std::string note;
};

/// The per-layer ladder over `inputs` (the --trace run). `seconds` is split
/// across the rows; `wire_totals` sums the wire rows' outcomes and keeps
/// their worst generator guards.
std::vector<Row> run_ladder(const Inputs& inputs, const Fixture& fixture,
                            const std::string& psld, double seconds, SpanLog& trace,
                            std::vector<Metric>& per_layer, WireResult& wire_totals);

}  // namespace psl::bench::layers
