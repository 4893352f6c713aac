// psl::net::Server — the socket front-end over psl::serve::Engine.
//
// One event-loop thread owns every socket: a non-blocking IPv4 listener plus
// per-connection state machines (incremental FrameDecoder in, reusable write
// buffer out), multiplexed through epoll where available and poll()
// everywhere else (ServerOptions::backend pins either, so both are testable
// on one platform). Every request type is one row of a handler table: a
// loop-thread payload check, a run step that encodes the whole response
// against a pinned engine State, where the row runs, whether UDP may use it,
// and its latency histogram. TCP query batches never run on the loop
// thread: their rows are handed to the engine's worker pool via
// Engine::submit_job, workers build the complete response frame off to the
// side, and a self-pipe wakes the loop to flush it — so a slow batch never
// blocks accepting, reading, or other connections' responses. UDP datagrams
// run the same rows inline on the loop thread (Engine::run_inline).
//
// Contracts worth naming:
//
//   * Backpressure is a wire-level REJECT, never unbounded buffering. When
//     the engine queue is full, the client gets an immediate
//     Status::kBackpressure response for that request (counted in
//     net.reject.backpressure on top of the engine's serve.rejected) and the
//     connection stays healthy. Per-connection write buffers are bounded
//     too: a connection with more than max_frame_bytes of unflushed output
//     stops being read until the peer drains it.
//   * Responses are bounded like requests: an answer whose payload would
//     exceed max_frame_bytes (a valid batch of long hosts can encode larger
//     than it arrived) is replaced by a kUnsupported status frame with
//     detail "response.oversize" — the caller must shrink its batch — and
//     the connection stays open.
//   * Frame-level violations (bad magic/version/flags, oversized length)
//     close the connection — the byte stream cannot be re-synchronized.
//     Payload-level violations answer Status::kMalformed and keep it open.
//   * Timeouts: a connection idle past idle_timeout_ms, stuck mid-frame past
//     read_timeout_ms, or sitting on undrained output with no send progress
//     for write_stall_timeout_ms (the peer stopped reading), is closed
//     (net.timeout.idle / net.timeout.read / net.timeout.write_stall). The
//     loop's poll timeout only tracks deadlines that can actually fire for a
//     connection's current state, so a stalled peer parks the loop instead
//     of spinning it.
//   * Push, not polling: a connection that sends subscribe (0x08) receives a
//     generation_changed (0x09) frame whenever a reload installs a new list
//     generation — it never has to poll stats. Pushes ride the same bounded
//     write buffers as responses, so a subscriber that stops reading is
//     closed by the write-stall timeout instead of buffered unboundedly.
//     Rapid consecutive reloads may coalesce into a single push carrying the
//     newest generation.
//   * Graceful drain: shutdown() stops accepting, lets in-flight engine
//     batches finish and their responses flush (bounded by
//     drain_timeout_ms), then closes everything and joins the loop thread.
//     The destructor calls shutdown() if the caller did not.
//   * The steady-state decode/encode hot path performs no heap allocation:
//     decoder buffers, write buffers, scratch parse vectors, and response
//     buffers (a recycling pool shared with the workers) all grow to a
//     high-water mark once and are reused.
//
// obs instrumentation (when given a registry): gauge net.connections;
// counters net.accepted, net.frames_in, net.frames_out, net.bytes_in,
// net.bytes_out, net.reject.backpressure, net.reject.malformed,
// net.reject.max_conns, net.timeout.idle, net.timeout.read,
// net.timeout.write_stall, net.frame_errors, net.push.sent,
// net.udp.datagrams, net.udp.dropped; histograms
// net.request_ms.{ping,same_site,match,reload,stats,match_at,divergence,
// ingest,census} (decode-to-response-enqueue latency per request type).
// With --analytics: counters analytics.ingest.records,
// analytics.ingest.dropped, analytics.census.queries; gauges
// analytics.{hosts,sites,pairs}.occupancy (the census's exact-aggregate
// filter fill levels, refreshed per ingest batch). The same numbers ride the
// stats frame's analytics block, so an uninstrumented deployment still sees
// them over the wire.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "psl/net/frame.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/serve/engine.hpp"
#include "psl/util/result.hpp"

namespace psl::net {

class Poller;  // epoll/poll backend, internal to server.cpp

/// Event-loop readiness backend. kAuto prefers epoll on Linux and falls back
/// to poll() everywhere else. An explicit kEpoll is strict: start() fails
/// with "net.backend" where epoll cannot run.
enum class Backend : std::uint8_t { kAuto, kEpoll, kPoll };

// UDP frames are bounded by kUdpMaxDatagramBytes (frame.hpp), both
// directions. A response that would exceed the bound (or max_frame_bytes,
// whichever is smaller) is replaced by the same check as TCP's with a
// kUnsupported status frame with detail "udp.oversize" (the request WAS
// valid — the caller must shrink its batch); an oversized or truncated
// request datagram is dropped outright, since a datagram, unlike a stream,
// cannot be resynchronized or answered reliably once mangled.

struct ServerOptions {
  std::string bind_address = "127.0.0.1";  ///< IPv4 dotted quad
  std::uint16_t port = 0;                  ///< 0 = ephemeral; see Server::port()
  std::size_t max_connections = 256;       ///< beyond this, accept-and-reject
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int idle_timeout_ms = 30000;   ///< close connections with no traffic this long
  int read_timeout_ms = 10000;   ///< a started frame must complete this fast
  int write_stall_timeout_ms = 10000;  ///< pending output must make progress this fast
  int drain_timeout_ms = 5000;   ///< graceful-shutdown bound before force-close
  Backend backend = Backend::kAuto;  ///< readiness backend (see Backend)
  /// SO_REUSEPORT on the listener (and the UDP socket): N servers bind the
  /// same port and the kernel load-balances connections across them — the
  /// psld --shards fan-out, N loops over one engine. Every socket on the
  /// port must set it.
  bool reuse_port = false;
  /// Serve the UDP fast path on the same port: one request frame per
  /// datagram, answered inline on the loop thread by the TCP handlers
  /// against an uncached pin (no worker hop) — for clients that cannot
  /// amortize a TCP batch. Supported request types:
  /// ping, same_site_batch, match_batch, stats; everything else answers
  /// kUnsupported with detail "udp.unsupported". See kUdpMaxDatagramBytes.
  bool enable_udp = false;
  obs::MetricsRegistry* metrics = nullptr;  ///< optional; null = uninstrumented
};

class Server {
 public:
  /// The engine must outlive the server. Nothing is bound until start().
  Server(serve::Engine& engine, ServerOptions options = {});
  ~Server();  // shutdown() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the event-loop thread. Returns the bound port
  /// (useful with port 0). Errors: net.listen (bind/listen/socket failure,
  /// message carries errno text), net.started (already running).
  util::Result<std::uint16_t> start();

  /// Graceful drain: stop accepting, finish in-flight batches and flush
  /// their responses (up to drain_timeout_ms), close, join. Idempotent.
  void shutdown();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const noexcept { return port_; }
  /// Open connections (tests; the live value is also the net.connections gauge).
  std::size_t connection_count() const;
  /// The active readiness backend ("epoll" or "poll"); "none" before the
  /// first successful start().
  const char* backend_name() const noexcept { return backend_name_; }

 private:
  struct Connection;
  struct Completion;
  using Clock = std::chrono::steady_clock;
  using Pinned = serve::Engine::Pinned;
  /// A handler's run step: append the complete response frame for request
  /// `id` to `out`, answering from `pinned`.
  using RunStep = void(const Pinned& pinned, std::span<const std::uint8_t> payload,
                       std::uint32_t id, std::vector<std::uint8_t>& out);

  /// One row of the request-handler table, shared by TCP and UDP.
  struct Handler {
    /// Loop-thread payload check; null accepts any payload. A payload that
    /// fails it answers kMalformed with `malformed` as the detail.
    bool (*parse)(std::span<const std::uint8_t> payload) = nullptr;
    const char* malformed = "";
    RunStep Server::*run = nullptr;
    bool worker = false;  ///< TCP runs it via submit_job, not on the loop
    bool udp = false;     ///< a datagram may carry it
    obs::Histogram* latency = nullptr;  ///< net.request_ms.*; null = untimed
  };
  /// The row for wire type byte `type`; null when no client may send it.
  const Handler* handler(std::uint8_t type) const noexcept;

  void loop();
  void handle_accept();
  void handle_udp();
  void answer_datagram(const Frame& frame);  // fills udp_out_
  bool handle_readable(Connection& conn);
  bool flush_writes(Connection& conn);
  void dispatch_frame(Connection& conn, const Frame& frame);
  void submit(Connection& conn, const Handler& row, const Frame& frame, Clock::time_point t0);
  /// Run `row` into `out`, then hold the response to the wire bound: a
  /// payload over max_frame_bytes (datagram: also the datagram bound) is
  /// replaced by a kUnsupported status. Every TCP and UDP answer runs here.
  void run_bounded(const Handler& row, const Pinned& pinned, FrameType type,
                   std::span<const std::uint8_t> payload, std::uint32_t id,
                   std::vector<std::uint8_t>& out, bool datagram);
  void respond_status(Connection& conn, FrameType type, std::uint32_t id, Status status,
                      std::string_view detail);
  void finish_submit(Connection& conn, serve::Engine::Enqueue enq, FrameType type,
                     std::uint32_t id);
  void complete(Completion completion);  // engine workers -> loop thread
  void drain_completions();
  void broadcast_generation();  // pending push -> subscribed connections
  void close_connection(std::uint64_t conn_id);
  int next_timeout_ms(std::chrono::steady_clock::time_point now) const;
  void update_read_interest(Connection& conn);

  // The run steps of the handler table, one per request type.
  RunStep run_ping, run_same_site, run_match, run_reload, run_stats, run_match_at,
      run_divergence, run_subscribe, run_ingest, run_census;

  // Recycled response buffers handed to engine workers so steady-state
  // response encoding allocates nothing once buffers reach high-water size.
  std::vector<std::uint8_t> acquire_buffer();
  void release_buffer(std::vector<std::uint8_t> buffer);

  serve::Engine& engine_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  int listen_fd_ = -1;
  int udp_fd_ = -1;         // the UDP fast path (enable_udp), same port
  int wake_read_fd_ = -1;   // self-pipe: workers/shutdown wake the loop
  int wake_write_fd_ = -1;
  const char* backend_name_ = "none";
  std::unique_ptr<Poller> poller_;
  std::thread loop_thread_;
  // Indexed by request type byte; rows without a run step are unknown types.
  std::array<Handler, static_cast<std::size_t>(FrameType::kCensusQuery) + 1> handlers_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::uint64_t next_conn_id_ = 1;
  // accept() hit fd exhaustion: the listener is parked until this instant so
  // level-triggered readiness cannot hot-spin the loop (loop thread only).
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_resume_at_{};
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::unordered_map<int, std::uint64_t> fd_to_conn_;
  mutable std::mutex conn_count_mutex_;  // connection_count() from other threads
  std::size_t conn_count_ = 0;

  // Engine jobs capture `this`; shutdown() therefore blocks until every
  // submitted job has reported back (outstanding_jobs_ == 0) before the
  // server can be torn down — the engine's drain guarantee makes that wait
  // finite whichever of the two objects the caller destroys first.
  std::mutex completion_mutex_;
  std::condition_variable jobs_cv_;
  std::size_t outstanding_jobs_ = 0;
  std::vector<Completion> completions_;

  std::mutex buffer_pool_mutex_;
  std::vector<std::vector<std::uint8_t>> buffer_pool_;

  // The push channel (subscribe / generation_changed). The engine's
  // generation listener fires on whatever thread performed the reload; it
  // records the newest generation here and wakes the loop, which fans one
  // 0x09 frame out to every subscribed connection. The state is shared via
  // shared_ptr so a listener invocation racing shutdown() holds it alive;
  // disarming under the mutex guarantees no pipe write after shutdown
  // closes the fd. Rapid reloads may coalesce into one push — subscribers
  // always converge to the newest generation, not every intermediate one.
  struct PushState {
    std::mutex mutex;
    bool armed = false;    ///< loop alive and interested in wakeups
    bool pending = false;  ///< a generation change awaits broadcast
    std::uint64_t generation = 0;
    std::uint64_t rule_count = 0;
    std::int64_t source_date_days = 0;
    int wake_fd = -1;
  };
  std::shared_ptr<PushState> push_state_;
  serve::Engine::ListenerId listener_id_ = 0;  ///< this server's engine listener

  std::vector<std::uint8_t> read_scratch_;  // loop-thread socket reads
  // UDP scratch (loop thread): the request datagram and the response under
  // construction. Both reach high-water size once and are reused.
  std::vector<std::uint8_t> udp_in_;
  std::vector<std::uint8_t> udp_out_;

  // census_query answers served over this server's lifetime (the stats
  // frame reports it even without a metrics registry).
  std::atomic<std::uint64_t> census_queries_total_{0};

  obs::Gauge* connections_gauge_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* reject_backpressure_ = nullptr;
  obs::Counter* reject_malformed_ = nullptr;
  obs::Counter* reject_max_conns_ = nullptr;
  obs::Counter* timeout_idle_ = nullptr;
  obs::Counter* timeout_read_ = nullptr;
  obs::Counter* timeout_write_stall_ = nullptr;
  obs::Counter* frame_errors_ = nullptr;
  obs::Counter* push_sent_ = nullptr;
  obs::Counter* udp_datagrams_ = nullptr;
  obs::Counter* udp_dropped_ = nullptr;
  obs::Counter* analytics_ingest_records_ = nullptr;
  obs::Counter* analytics_ingest_dropped_ = nullptr;
  obs::Counter* analytics_census_queries_ = nullptr;
  obs::Gauge* analytics_hosts_gauge_ = nullptr;
  obs::Gauge* analytics_sites_gauge_ = nullptr;
  obs::Gauge* analytics_pairs_gauge_ = nullptr;
};

}  // namespace psl::net
