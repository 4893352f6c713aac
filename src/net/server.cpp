#include "psl/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "psl/analytics/census.hpp"
#include "psl/store/store.hpp"

#if defined(__linux__)
#include <sys/epoll.h>
#endif

namespace psl::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// How long the listener stays parked after accept() hits fd exhaustion.
constexpr int kAcceptRetryMs = 100;

}  // namespace

// --- Poller: the epoll/poll readiness backend -------------------------------

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  virtual ~Poller() = default;
  virtual bool add(int fd, bool want_read, bool want_write) = 0;
  virtual bool mod(int fd, bool want_read, bool want_write) = 0;
  virtual void del(int fd) = 0;
  /// Fill `out` (cleared first) with ready fds; timeout_ms < 0 blocks.
  virtual int wait(std::vector<Event>& out, int timeout_ms) = 0;
  virtual const char* name() const noexcept = 0;

  /// Resolve `backend` to a concrete poller. kAuto prefers epoll where
  /// available; an explicit kEpoll that cannot run returns nullptr (the
  /// caller turns that into a "net.backend" error — no silent substitution
  /// of an explicitly requested backend).
  static std::unique_ptr<Poller> make(Backend backend);
};

namespace {

/// Portable backend: one pollfd per fd, O(n) wait. n is bounded by
/// max_connections, so this stays serviceable where epoll is unavailable.
class PollPoller final : public Poller {
 public:
  bool add(int fd, bool want_read, bool want_write) override {
    if (index_.count(fd) != 0) return false;
    index_[fd] = fds_.size();
    fds_.push_back(pollfd{fd, events_of(want_read, want_write), 0});
    return true;
  }

  bool mod(int fd, bool want_read, bool want_write) override {
    auto it = index_.find(fd);
    if (it == index_.end()) return false;
    fds_[it->second].events = events_of(want_read, want_write);
    return true;
  }

  void del(int fd) override {
    auto it = index_.find(fd);
    if (it == index_.end()) return;
    const std::size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != fds_.size()) {
      fds_[pos] = fds_.back();
      index_[fds_[pos].fd] = pos;
    }
    fds_.pop_back();
  }

  int wait(std::vector<Event>& out, int timeout_ms) override {
    out.clear();
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return n;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      Event ev;
      ev.fd = p.fd;
      // POLLHUP surfaces as readable so the read path observes EOF.
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(ev);
    }
    return n;
  }

  const char* name() const noexcept override { return "poll"; }

 private:
  static short events_of(bool want_read, bool want_write) {
    return static_cast<short>((want_read ? POLLIN : 0) | (want_write ? POLLOUT : 0));
  }

  std::vector<pollfd> fds_;
  std::unordered_map<int, std::size_t> index_;
};

#if defined(__linux__)
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  bool ok() const { return epoll_fd_ >= 0; }

  bool add(int fd, bool want_read, bool want_write) override {
    return ctl(EPOLL_CTL_ADD, fd, want_read, want_write);
  }
  bool mod(int fd, bool want_read, bool want_write) override {
    return ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  void del(int fd) override { ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr); }

  int wait(std::vector<Event>& out, int timeout_ms) override {
    out.clear();
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      Event ev;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.error = (events[i].events & EPOLLERR) != 0;
      out.push_back(ev);
    }
    return n;
  }

  const char* name() const noexcept override { return "epoll"; }

 private:
  bool ctl(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
  }

  int epoll_fd_;
};
#endif  // __linux__

}  // namespace

std::unique_ptr<Poller> Poller::make(Backend backend) {
  if (backend == Backend::kPoll) return std::make_unique<PollPoller>();
#if defined(__linux__)
  {
    auto epoll = std::make_unique<EpollPoller>();
    if (epoll->ok()) return epoll;
  }
#endif
  return backend == Backend::kEpoll ? nullptr : std::make_unique<PollPoller>();
}

// --- response encoding + parse steps ----------------------------------------

namespace {

void observe_since(obs::Histogram* sink, std::chrono::steady_clock::time_point t0) {
  if (!sink) return;
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  sink->observe(std::chrono::duration<double, std::milli>(elapsed).count());
}

/// A status-only response frame: the status byte and a str16 detail.
void append_status(std::vector<std::uint8_t>& out, FrameType type, std::uint32_t id,
                   Status status, std::string_view detail) {
  const std::size_t frame_begin = begin_response_frame(out, type, id);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_str16(out, detail.substr(0, 512));
  end_frame(out, frame_begin);
}

/// Start a kOk response frame; the caller appends the body and end_frame()s.
std::size_t begin_ok(std::vector<std::uint8_t>& out, FrameType type, std::uint32_t id) {
  const std::size_t frame_begin = begin_response_frame(out, type, id);
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  return frame_begin;
}

/// A date as u64 days since 1970-01-01, two's complement.
void put_date(std::vector<std::uint8_t>& out, util::Date date) {
  put_u64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(date.days_since_epoch())));
}

/// The MatchView→wire encoder, shared by match_batch (TCP and UDP) and
/// match_at: u32 count, then per host str16 public_suffix, str16
/// registrable_domain, u8 flags (bit0 explicit rule, bit1 private section).
void put_match_views(std::vector<std::uint8_t>& out, std::span<const MatchView> views) {
  put_u32(out, static_cast<std::uint32_t>(views.size()));
  for (const MatchView& view : views) {
    put_str16(out, view.public_suffix);
    put_str16(out, view.registrable_domain);
    put_u8(out, static_cast<std::uint8_t>((view.matched_explicit_rule ? 1u : 0u) |
                                          (view.section == Section::kPrivate ? 2u : 0u)));
  }
}

/// Without a store a time-travel request is kUnsupported; any other store
/// error (a date before the first version) is the request's fault.
Status store_status(const util::Error& error) {
  return error.code == "store.none" ? Status::kUnsupported : Status::kMalformed;
}

// Handler parse steps (loop thread). The parsed views are discarded; the
// run step re-parses the same bytes.
bool valid_same_site(std::span<const std::uint8_t> payload) {
  thread_local std::vector<std::pair<std::string_view, std::string_view>> pairs;
  return parse_same_site_request(payload, pairs);
}
bool valid_match(std::span<const std::uint8_t> payload) {
  thread_local std::vector<std::string_view> hosts;
  return parse_match_request(payload, hosts);
}
bool valid_match_at(std::span<const std::uint8_t> payload) {
  thread_local std::vector<std::string_view> hosts;
  std::int64_t days = 0;
  return parse_match_at_request(payload, days, hosts);
}
bool valid_divergence(std::span<const std::uint8_t> payload) {
  std::string_view host;
  return parse_divergence_request(payload, host);
}
bool valid_subscribe(std::span<const std::uint8_t> payload) { return payload.empty(); }
bool valid_ingest(std::span<const std::uint8_t> payload) {
  thread_local std::vector<WireIngestRecord> records;
  return parse_ingest_request(payload, records);
}
bool valid_census(std::span<const std::uint8_t> payload) {
  std::uint32_t top_k = 0;
  return parse_census_request(payload, top_k);
}

}  // namespace

// --- connection + completion state ------------------------------------------

struct Server::Connection {
  Connection(std::uint64_t id_in, int fd_in, std::size_t max_frame_bytes)
      : id(id_in), fd(fd_in), decoder(max_frame_bytes) {}

  std::uint64_t id;
  int fd;
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::size_t inflight = 0;  ///< engine jobs whose responses are pending
  bool draining = false;
  bool subscribed = false;  ///< receives generation_changed pushes
  /// Last generation/rule count pushed (or implied by the subscribe reply);
  /// the next push carries rule_delta relative to pushed_rule_count.
  std::uint64_t pushed_generation = 0;
  std::uint64_t pushed_rule_count = 0;
  bool want_read = true;
  bool want_write = false;
  bool mid_frame = false;
  std::chrono::steady_clock::time_point last_activity;
  std::chrono::steady_clock::time_point frame_start;

  std::size_t pending_out() const noexcept { return out.size() - out_off; }
};

/// A finished engine batch: one fully encoded response frame plus enough
/// context to route and time it. Produced on engine workers, consumed on the
/// loop thread.
struct Server::Completion {
  std::uint64_t conn_id = 0;
  std::vector<std::uint8_t> frame;    ///< recycled via the buffer pool
  obs::Histogram* latency = nullptr;  ///< the request row's net.request_ms.*
  std::chrono::steady_clock::time_point t0;
};

// --- lifecycle --------------------------------------------------------------

Server::Server(serve::Engine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.metrics) {
    auto& m = *options_.metrics;
    connections_gauge_ = &m.gauge("net.connections");
    accepted_ = &m.counter("net.accepted");
    frames_in_ = &m.counter("net.frames_in");
    frames_out_ = &m.counter("net.frames_out");
    bytes_in_ = &m.counter("net.bytes_in");
    bytes_out_ = &m.counter("net.bytes_out");
    reject_backpressure_ = &m.counter("net.reject.backpressure");
    reject_malformed_ = &m.counter("net.reject.malformed");
    reject_max_conns_ = &m.counter("net.reject.max_conns");
    timeout_idle_ = &m.counter("net.timeout.idle");
    timeout_read_ = &m.counter("net.timeout.read");
    timeout_write_stall_ = &m.counter("net.timeout.write_stall");
    frame_errors_ = &m.counter("net.frame_errors");
    push_sent_ = &m.counter("net.push.sent");
    udp_datagrams_ = &m.counter("net.udp.datagrams");
    udp_dropped_ = &m.counter("net.udp.dropped");
    analytics_ingest_records_ = &m.counter("analytics.ingest.records");
    analytics_ingest_dropped_ = &m.counter("analytics.ingest.dropped");
    analytics_census_queries_ = &m.counter("analytics.census.queries");
    analytics_hosts_gauge_ = &m.gauge("analytics.hosts.occupancy");
    analytics_sites_gauge_ = &m.gauge("analytics.sites.occupancy");
    analytics_pairs_gauge_ = &m.gauge("analytics.pairs.occupancy");
  }

  // The request-handler table: one row per type a client may send.
  const auto row = [this](FrameType type, const char* metric, Handler handler) {
    if (metric && options_.metrics) handler.latency = &options_.metrics->histogram(metric);
    handlers_[static_cast<std::size_t>(type)] = handler;
  };
  row(FrameType::kPing, "net.request_ms.ping", {.run = &Server::run_ping, .udp = true});
  row(FrameType::kSameSiteBatch, "net.request_ms.same_site",
      {.parse = valid_same_site, .malformed = "bad same_site_batch payload",
       .run = &Server::run_same_site, .worker = true, .udp = true});
  row(FrameType::kMatchBatch, "net.request_ms.match",
      {.parse = valid_match, .malformed = "bad match_batch payload", .run = &Server::run_match,
       .worker = true, .udp = true});
  row(FrameType::kReload, "net.request_ms.reload", {.run = &Server::run_reload});
  row(FrameType::kStats, "net.request_ms.stats", {.run = &Server::run_stats, .udp = true});
  row(FrameType::kMatchAt, "net.request_ms.match_at",
      {.parse = valid_match_at, .malformed = "bad match_at payload",
       .run = &Server::run_match_at, .worker = true});
  row(FrameType::kDivergence, "net.request_ms.divergence",
      {.parse = valid_divergence, .malformed = "bad divergence payload",
       .run = &Server::run_divergence, .worker = true});
  row(FrameType::kSubscribe, nullptr,
      {.parse = valid_subscribe, .malformed = "subscribe payload must be empty",
       .run = &Server::run_subscribe});
  row(FrameType::kIngestBatch, "net.request_ms.ingest",
      {.parse = valid_ingest, .malformed = "bad ingest_batch payload",
       .run = &Server::run_ingest, .worker = true});
  row(FrameType::kCensusQuery, "net.request_ms.census",
      {.parse = valid_census, .malformed = "bad census_query payload",
       .run = &Server::run_census, .worker = true});
}

Server::~Server() { shutdown(); }

util::Result<std::uint16_t> Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return util::make_error("net.started", "server is already running");
  }

  // Resolve the backend before touching any socket so an unsupported
  // explicit request fails with nothing to unwind.
  poller_ = Poller::make(options_.backend);
  if (!poller_) return util::make_error("net.backend", "requested event backend unavailable");
  backend_name_ = poller_->name();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return util::make_error("net.listen", "bad IPv4 bind address: " + options_.bind_address);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return util::make_error("net.listen", errno_text("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (options_.reuse_port) {
    // Must be set on EVERY socket sharing the port, before bind — this is
    // the kernel's shard load-balancer (psld --shards).
    if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      const auto err = util::make_error("net.listen", errno_text("setsockopt(SO_REUSEPORT)"));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return err;
    }
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0 || !set_nonblocking(listen_fd_)) {
    const auto err = util::make_error("net.listen", errno_text("bind/listen"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const auto err = util::make_error("net.listen", errno_text("getsockname"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  port_ = ntohs(bound.sin_port);

  if (options_.enable_udp) {
    udp_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (udp_fd_ < 0) {
      const auto err = util::make_error("net.listen", errno_text("socket(udp)"));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return err;
    }
    if (options_.reuse_port) ::setsockopt(udp_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
    sockaddr_in udp_addr = addr;
    udp_addr.sin_port = htons(port_);  // the TCP-resolved port, even when 0 was asked
    if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&udp_addr), sizeof udp_addr) != 0 ||
        !set_nonblocking(udp_fd_)) {
      const auto err = util::make_error("net.listen", errno_text("bind(udp)"));
      ::close(udp_fd_);
      udp_fd_ = -1;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return err;
    }
    udp_in_.resize(std::min(options_.max_frame_bytes + kHeaderBytes, kUdpMaxDatagramBytes));
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const auto err = util::make_error("net.listen", errno_text("pipe"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (udp_fd_ >= 0) {
      ::close(udp_fd_);
      udp_fd_ = -1;
    }
    return err;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  poller_->add(listen_fd_, true, false);
  poller_->add(wake_read_fd_, true, false);
  if (udp_fd_ >= 0) poller_->add(udp_fd_, true, false);

  read_scratch_.resize(64 * 1024);
  stop_requested_.store(false, std::memory_order_release);

  // Arm the push channel: the engine's generation listener records the new
  // generation and wakes the loop, which broadcasts to subscribed
  // connections. The listener captures the shared state (not `this`), so an
  // invocation racing shutdown() cannot dangle; disarming under the mutex
  // guarantees no pipe write after the fd closes.
  push_state_ = std::make_shared<PushState>();
  push_state_->armed = true;
  push_state_->wake_fd = wake_write_fd_;
  listener_id_ = engine_.add_generation_listener(
      [state = push_state_](std::uint64_t generation, const snapshot::Metadata& meta) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->armed) return;
        state->pending = true;
        state->generation = generation;
        state->rule_count = meta.rule_count;
        state->source_date_days = meta.source_date.days_since_epoch();
        const std::uint8_t byte = 1;
        (void)!::write(state->wake_fd, &byte, 1);  // EAGAIN = wakeup already pending
      });

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
  return port_;
}

void Server::shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Disarm the push channel first: removing this server's engine listener
  // (and only it — other servers on the engine keep theirs) stops new
  // invocations, and flipping `armed` under the mutex waits out any
  // listener mid-write so nothing touches the wake pipe once it closes.
  engine_.remove_generation_listener(listener_id_);
  if (push_state_) {
    std::lock_guard<std::mutex> lock(push_state_->mutex);
    push_state_->armed = false;
    push_state_->wake_fd = -1;
  }
  stop_requested_.store(true, std::memory_order_release);
  const std::uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup.
  (void)!::write(wake_write_fd_, &byte, 1);
  if (loop_thread_.joinable()) loop_thread_.join();

  // Engine jobs capture `this`; wait for every one of them to report back
  // (the engine's workers keep draining its queue, so this is finite)
  // before retiring the wake pipe and letting the server be destroyed.
  {
    std::unique_lock<std::mutex> lock(completion_mutex_);
    jobs_cv_.wait(lock, [this] { return outstanding_jobs_ == 0; });
    ::close(wake_write_fd_);
    wake_write_fd_ = -1;
  }
  ::close(wake_read_fd_);
  wake_read_fd_ = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (udp_fd_ >= 0) {
    ::close(udp_fd_);
    udp_fd_ = -1;
  }
  poller_.reset();
  running_.store(false, std::memory_order_release);
}

std::size_t Server::connection_count() const {
  std::lock_guard<std::mutex> lock(conn_count_mutex_);
  return conn_count_;
}

// --- buffer pool ------------------------------------------------------------

std::vector<std::uint8_t> Server::acquire_buffer() {
  std::lock_guard<std::mutex> lock(buffer_pool_mutex_);
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buffer.clear();
  return buffer;
}

void Server::release_buffer(std::vector<std::uint8_t> buffer) {
  std::lock_guard<std::mutex> lock(buffer_pool_mutex_);
  if (buffer_pool_.size() < 64) buffer_pool_.push_back(std::move(buffer));
}

// --- event loop -------------------------------------------------------------

void Server::loop() {
  std::vector<Poller::Event> events;
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    const Clock::time_point now = Clock::now();

    if (stop_requested_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = now + std::chrono::milliseconds(options_.drain_timeout_ms);
      poller_->del(listen_fd_);
      if (udp_fd_ >= 0) poller_->del(udp_fd_);
      for (auto& [id, conn] : connections_) {
        conn->draining = true;
        update_read_interest(*conn);
      }
    }

    if (draining) {
      // Close connections with nothing left to deliver; exit once all are
      // gone or the drain bound expires (in-flight responses are then shed).
      std::vector<std::uint64_t> done;
      for (auto& [id, conn] : connections_) {
        if (conn->inflight == 0 && conn->pending_out() == 0) done.push_back(id);
      }
      for (const std::uint64_t id : done) close_connection(id);
      if (connections_.empty() || now >= drain_deadline) break;
    }

    // Enforce idle/read/write-stall timeouts before sleeping. The guards here
    // must stay in lockstep with next_timeout_ms: every deadline that call
    // reports has to be one this check can fire, or the loop busy-spins on a
    // deadline that never resolves.
    {
      std::vector<std::uint64_t> expired_idle, expired_read, expired_write;
      for (auto& [id, conn] : connections_) {
        if (options_.read_timeout_ms > 0 && conn->mid_frame &&
            now - conn->frame_start >= std::chrono::milliseconds(options_.read_timeout_ms)) {
          expired_read.push_back(id);
        } else if (options_.write_stall_timeout_ms > 0 && conn->pending_out() > 0 &&
                   now - conn->last_activity >=
                       std::chrono::milliseconds(options_.write_stall_timeout_ms)) {
          // last_activity advances on every successful send, so this fires
          // only when the peer has accepted nothing for the whole window.
          expired_write.push_back(id);
        } else if (options_.idle_timeout_ms > 0 && conn->inflight == 0 &&
                   conn->pending_out() == 0 &&
                   now - conn->last_activity >=
                       std::chrono::milliseconds(options_.idle_timeout_ms)) {
          expired_idle.push_back(id);
        }
      }
      for (const std::uint64_t id : expired_read) {
        if (timeout_read_) timeout_read_->add();
        close_connection(id);
      }
      for (const std::uint64_t id : expired_write) {
        if (timeout_write_stall_) timeout_write_stall_->add();
        close_connection(id);
      }
      for (const std::uint64_t id : expired_idle) {
        if (timeout_idle_) timeout_idle_->add();
        close_connection(id);
      }
    }

    // Un-park the listener once the fd-exhaustion backoff elapses.
    if (accept_paused_ && !draining && now >= accept_resume_at_) {
      accept_paused_ = false;
      poller_->add(listen_fd_, true, false);
    }

    int timeout_ms = next_timeout_ms(now);
    if (accept_paused_ && !draining) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(accept_resume_at_ - now).count();
      const int resume_left = static_cast<int>(std::max<long long>(0, left));
      timeout_ms = timeout_ms < 0 ? resume_left : std::min(timeout_ms, resume_left);
    }
    if (draining) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(drain_deadline - now).count();
      const int drain_left = static_cast<int>(std::max<long long>(0, left));
      timeout_ms = timeout_ms < 0 ? drain_left : std::min(timeout_ms, drain_left);
    }

    poller_->wait(events, timeout_ms);

    // Drain the wake pipe BEFORE anything that can make a worker write to
    // it. Draining it mid-batch (after dispatching a connection's request)
    // could swallow a byte the worker wrote for a completion that
    // drain_completions() already missed this iteration — the next wait()
    // would then block indefinitely with that response stranded.
    for (const Poller::Event& ev : events) {
      if (ev.fd != wake_read_fd_) continue;
      std::uint8_t sink[256];
      while (::read(wake_read_fd_, sink, sizeof sink) > 0) {
      }
      break;
    }
    drain_completions();
    broadcast_generation();

    bool accept_ready = false;
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_read_fd_) continue;  // drained above
      if (ev.fd == listen_fd_) {
        accept_ready = true;  // handled after existing connections, so a
        continue;             // just-closed fd cannot alias a fresh accept
      }
      if (udp_fd_ >= 0 && ev.fd == udp_fd_) {
        if (!draining) handle_udp();
        continue;
      }
      auto it = fd_to_conn_.find(ev.fd);
      if (it == fd_to_conn_.end()) continue;  // closed earlier this batch
      const std::uint64_t conn_id = it->second;
      Connection& conn = *connections_.at(conn_id);
      bool alive = true;
      if (ev.error) alive = false;
      if (alive && ev.readable && conn.want_read) alive = handle_readable(conn);
      if (alive && ev.writable) alive = flush_writes(conn);
      if (!alive) close_connection(conn_id);
    }
    if (accept_ready && !draining) handle_accept();
  }

  // Force-close whatever the drain bound left behind.
  while (!connections_.empty()) close_connection(connections_.begin()->first);
}

int Server::next_timeout_ms(std::chrono::steady_clock::time_point now) const {
  using std::chrono::milliseconds;
  std::chrono::steady_clock::time_point earliest{};
  bool have = false;
  // Only deadlines the expiry check can fire in the connection's CURRENT
  // state count. Reporting any other deadline (e.g. an idle deadline for a
  // write-stalled or inflight connection) would clamp the poll timeout to 0
  // once it passes and spin the loop at 100% CPU with nothing to do.
  for (const auto& [id, conn] : connections_) {
    if (options_.read_timeout_ms > 0 && conn->mid_frame) {
      const auto deadline = conn->frame_start + milliseconds(options_.read_timeout_ms);
      if (!have || deadline < earliest) earliest = deadline, have = true;
    }
    if (conn->pending_out() > 0) {
      if (options_.write_stall_timeout_ms > 0) {
        const auto deadline =
            conn->last_activity + milliseconds(options_.write_stall_timeout_ms);
        if (!have || deadline < earliest) earliest = deadline, have = true;
      }
    } else if (conn->inflight == 0 && options_.idle_timeout_ms > 0) {
      const auto deadline = conn->last_activity + milliseconds(options_.idle_timeout_ms);
      if (!have || deadline < earliest) earliest = deadline, have = true;
    }
  }
  if (!have) return -1;
  const auto left = std::chrono::duration_cast<milliseconds>(earliest - now).count();
  return static_cast<int>(std::clamp<long long>(left, 0, 60'000));
}

void Server::handle_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // fd/buffer exhaustion: the backlog stays ready, so level-triggered
        // wakeups would hot-spin the loop. Park the listener and retry once
        // the backoff elapses (pending clients just wait in the backlog).
        poller_->del(listen_fd_);
        accept_paused_ = true;
        accept_resume_at_ =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(kAcceptRetryMs);
      }
      return;  // EAGAIN or a transient accept error: try next wake
    }
    if (connections_.size() >= options_.max_connections) {
      if (reject_max_conns_) reject_max_conns_->add();
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(id, fd, options_.max_frame_bytes);
    conn->last_activity = std::chrono::steady_clock::now();
    poller_->add(fd, true, false);
    fd_to_conn_[fd] = id;
    connections_[id] = std::move(conn);
    if (accepted_) accepted_->add();
    {
      std::lock_guard<std::mutex> lock(conn_count_mutex_);
      conn_count_ = connections_.size();
    }
    if (connections_gauge_) connections_gauge_->add(1);
  }
}

void Server::close_connection(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  const int fd = it->second->fd;
  poller_->del(fd);
  ::close(fd);
  fd_to_conn_.erase(fd);
  connections_.erase(it);
  {
    std::lock_guard<std::mutex> lock(conn_count_mutex_);
    conn_count_ = connections_.size();
  }
  if (connections_gauge_) connections_gauge_->add(-1);
}

bool Server::handle_readable(Connection& conn) {
  for (;;) {
    const ssize_t n = ::read(conn.fd, read_scratch_.data(), read_scratch_.size());
    if (n > 0) {
      if (bytes_in_) bytes_in_->add(n);
      conn.last_activity = std::chrono::steady_clock::now();
      conn.decoder.feed({read_scratch_.data(), static_cast<std::size_t>(n)});
      if (static_cast<std::size_t>(n) < read_scratch_.size()) break;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  Frame frame;
  for (;;) {
    const FrameDecoder::Next got = conn.decoder.next(frame);
    if (got == FrameDecoder::Next::kFrame) {
      if (frames_in_) frames_in_->add();
      dispatch_frame(conn, frame);
      continue;
    }
    if (got == FrameDecoder::Next::kError) {
      // The stream cannot be resynchronized past a bad header; drop it.
      if (frame_errors_) frame_errors_->add();
      return false;
    }
    break;  // kNeedMore
  }

  // Read-timeout bookkeeping: a partial frame sitting in the decoder is a
  // started frame that must complete within read_timeout_ms.
  if (conn.decoder.buffered() > 0) {
    if (!conn.mid_frame) {
      conn.mid_frame = true;
      conn.frame_start = std::chrono::steady_clock::now();
    }
  } else {
    conn.mid_frame = false;
  }

  if (!flush_writes(conn)) return false;
  update_read_interest(conn);
  return true;
}

bool Server::flush_writes(Connection& conn) {
  while (conn.pending_out() > 0) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off, conn.pending_out(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      if (bytes_out_) bytes_out_->add(n);
      conn.out_off += static_cast<std::size_t>(n);
      // Send progress resets the write-stall clock (and the idle clock, as
      // reads already do) so only a peer accepting NOTHING gets stalled out.
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn.pending_out() == 0) {
    conn.out.clear();  // capacity kept: the steady-state no-alloc contract
    conn.out_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      poller_->mod(conn.fd, conn.want_read, false);
    }
  } else if (!conn.want_write) {
    conn.want_write = true;
    poller_->mod(conn.fd, conn.want_read, true);
  }
  update_read_interest(conn);
  return true;
}

void Server::update_read_interest(Connection& conn) {
  // Stop reading from peers that won't drain their responses (bounded
  // buffering), and from everyone once the server is draining.
  const bool want = !conn.draining && conn.pending_out() <= options_.max_frame_bytes;
  if (want != conn.want_read) {
    conn.want_read = want;
    poller_->mod(conn.fd, conn.want_read, conn.want_write);
  }
}

// --- request dispatch -------------------------------------------------------

const Server::Handler* Server::handler(std::uint8_t type) const noexcept {
  return type < handlers_.size() && handlers_[type].run ? &handlers_[type] : nullptr;
}

void Server::respond_status(Connection& conn, FrameType type, std::uint32_t id, Status status,
                            std::string_view detail) {
  append_status(conn.out, type, id, status, detail);
  if (frames_out_) frames_out_->add();
}

void Server::dispatch_frame(Connection& conn, const Frame& frame) {
  const auto t0 = Clock::now();
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const std::uint32_t id = frame.header.id;
  const Handler* row = handler(frame.header.type);

  if (conn.draining) {
    respond_status(conn, type, id, Status::kShuttingDown, "server is draining");
  } else if (!row) {
    respond_status(conn, type, id, Status::kUnsupported,
                   "unknown frame type " + std::to_string(frame.header.type));
  } else if (row->parse && !row->parse(frame.payload)) {
    if (reject_malformed_) reject_malformed_->add();
    respond_status(conn, type, id, Status::kMalformed, row->malformed);
  } else if (row->worker) {
    submit(conn, *row, frame, t0);
  } else {
    engine_.run_inline([&](const Pinned& pinned) {
      run_bounded(*row, pinned, type, frame.payload, id, conn.out, false);
      if (type == FrameType::kSubscribe) {
        // Record what this peer now knows, from the same pin the reply
        // came from, so the first push carries a meaningful rule_delta and
        // a generation it already saw is skipped.
        conn.subscribed = true;
        conn.pushed_generation = pinned.generation;
        conn.pushed_rule_count = pinned.meta.rule_count;
      }
    });
    if (frames_out_) frames_out_->add();
    observe_since(row->latency, t0);
  }
}

void Server::run_bounded(const Handler& row, const Pinned& pinned, FrameType type,
                         std::span<const std::uint8_t> payload, std::uint32_t id,
                         std::vector<std::uint8_t>& out, bool datagram) {
  const std::size_t frame_begin = out.size();
  (this->*row.run)(pinned, payload, id, out);
  const std::size_t limit =
      datagram ? std::min(options_.max_frame_bytes, kUdpMaxDatagramBytes - kHeaderBytes)
               : options_.max_frame_bytes;
  if (out.size() - frame_begin > kHeaderBytes + limit) {
    out.resize(frame_begin);
    append_status(out, type, id, Status::kUnsupported,
                  datagram ? "udp.oversize" : "response.oversize");
  }
}

void Server::submit(Connection& conn, const Handler& row, const Frame& frame,
                    Clock::time_point t0) {
  // Copy the payload ONCE into a pooled buffer the job owns (the decoder
  // reuses its buffer on the next read); the worker re-parses it into views.
  std::vector<std::uint8_t> request = acquire_buffer();
  request.assign(frame.payload.begin(), frame.payload.end());
  {
    // Reserve before submit: the job may run (and report back) before
    // submit_job even returns.
    std::lock_guard<std::mutex> lock(completion_mutex_);
    ++outstanding_jobs_;
  }
  const std::uint32_t id = frame.header.id;
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const auto enq = engine_.submit_job(
      [this, &row, conn_id = conn.id, id, type, t0,
       request = std::move(request)](const Pinned& pinned) mutable {
        std::vector<std::uint8_t> response = acquire_buffer();
        run_bounded(row, pinned, type, request, id, response, false);
        if (frames_out_) frames_out_->add();
        release_buffer(std::move(request));
        complete(Completion{conn_id, std::move(response), row.latency, t0});
      });
  finish_submit(conn, enq, type, id);
}

void Server::finish_submit(Connection& conn, serve::Engine::Enqueue enq, FrameType type,
                           std::uint32_t id) {
  switch (enq) {
    case serve::Engine::Enqueue::kOk:
      ++conn.inflight;
      return;
    case serve::Engine::Enqueue::kBackpressure:
      if (reject_backpressure_) reject_backpressure_->add();
      respond_status(conn, type, id, Status::kBackpressure, "engine queue is full");
      break;
    case serve::Engine::Enqueue::kStopped:
      respond_status(conn, type, id, Status::kShuttingDown, "engine is stopped");
      break;
  }
  // The job was never enqueued; give back its reservation.
  std::lock_guard<std::mutex> lock(completion_mutex_);
  --outstanding_jobs_;
  jobs_cv_.notify_all();
}

// --- the UDP fast path ------------------------------------------------------
//
// One datagram = one PSLN frame, same header and payload layouts as TCP.
// Requests run their handler row INLINE on the loop thread against an
// uncached pin — no worker hop, no completion queue — which is the whole
// point: a client that cannot amortize a TCP batch (one lookup per event,
// e.g. a resolver plugin) gets an answer in one socket round trip with no
// connection state on either side. Datagram loss/reordering is the client's
// problem by UDP contract (the request id echoes back for matching);
// oversized responses are replaced (run_bounded) by a
// kUnsupported("udp.oversize") status
// so the peer learns the bound rather than silently missing a truncated
// reply. Datagrams that fail decode_datagram are dropped: answering would
// require trusting the very bytes that failed validation.

void Server::handle_udp() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const ssize_t n = ::recvfrom(udp_fd_, udp_in_.data(), udp_in_.size(), MSG_TRUNC,
                                 reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient error: next wake retries
    }
    if (udp_datagrams_) udp_datagrams_->add();
    if (bytes_in_) bytes_in_->add(n);
    // MSG_TRUNC reports the true size: a datagram over the buffer was
    // truncated, so it is undecodable by construction.
    Frame frame;
    if (static_cast<std::size_t>(n) > udp_in_.size() ||
        !decode_datagram({udp_in_.data(), static_cast<std::size_t>(n)}, frame)) {
      if (udp_dropped_) udp_dropped_->add();
      continue;
    }
    if (frames_in_) frames_in_->add();
    answer_datagram(frame);
    const ssize_t sent = ::sendto(udp_fd_, udp_out_.data(), udp_out_.size(), 0,
                                  reinterpret_cast<sockaddr*>(&peer), peer_len);
    if (sent > 0) {
      if (bytes_out_) bytes_out_->add(sent);
      if (frames_out_) frames_out_->add();
    } else if (udp_dropped_) {
      udp_dropped_->add();  // full socket buffer: lossy by UDP contract
    }
  }
}

void Server::answer_datagram(const Frame& frame) {
  const auto t0 = Clock::now();
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const std::uint32_t id = frame.header.id;
  const Handler* row = handler(frame.header.type);
  udp_out_.clear();

  // Stateful (subscribe), mutating (reload, ingest), or unboundedly large
  // (census, divergence, match_at) request types stay TCP-only: they need
  // a connection's ordering, bounded-buffer, and drain guarantees.
  if (!row || !row->udp) {
    append_status(udp_out_, type, id, Status::kUnsupported, "udp.unsupported");
    return;
  }
  if (row->parse && !row->parse(frame.payload)) {
    if (reject_malformed_) reject_malformed_->add();
    append_status(udp_out_, type, id, Status::kMalformed, row->malformed);
    return;
  }
  engine_.run_inline([&](const Pinned& pinned) {
    run_bounded(*row, pinned, type, frame.payload, id, udp_out_, true);
  });
  observe_since(row->latency, t0);
}

// --- request handlers (Handler::run) ----------------------------------------
//
// Each run step encodes one complete response frame. Its parse step already
// validated the payload, so the re-parse here cannot fail; every hostname the
// matcher sees is a view into the request bytes and every response field is
// encoded straight from arena-backed MatchView spans — no per-host
// std::string anywhere on the path. Scratch vectors are thread_local, so the
// steady state allocates nothing.

void Server::run_ping(const Pinned&, std::span<const std::uint8_t> payload, std::uint32_t id,
                      std::vector<std::uint8_t>& out) {
  const std::size_t frame_begin = begin_ok(out, FrameType::kPing, id);
  put_raw(out, payload);
  end_frame(out, frame_begin);
}

void Server::run_same_site(const Pinned& pinned, std::span<const std::uint8_t> payload,
                           std::uint32_t id, std::vector<std::uint8_t>& out) {
  thread_local std::vector<std::pair<std::string_view, std::string_view>> pairs;
  parse_same_site_request(payload, pairs);
  const std::size_t frame_begin = begin_ok(out, FrameType::kSameSiteBatch, id);
  put_u32(out, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [a, b] : pairs) put_u8(out, pinned.same_site(a, b) ? 1 : 0);
  end_frame(out, frame_begin);
  engine_.count_queries(pairs.size());
}

void Server::run_match(const Pinned& pinned, std::span<const std::uint8_t> payload,
                       std::uint32_t id, std::vector<std::uint8_t>& out) {
  thread_local std::vector<std::string_view> hosts;
  thread_local std::vector<MatchView> views;
  parse_match_request(payload, hosts);
  views.resize(hosts.size());
  pinned.match_batch(hosts, views);
  const std::size_t frame_begin = begin_ok(out, FrameType::kMatchBatch, id);
  put_match_views(out, views);
  end_frame(out, frame_begin);
  engine_.count_queries(hosts.size());
}

void Server::run_reload(const Pinned&, std::span<const std::uint8_t> payload, std::uint32_t id,
                        std::vector<std::uint8_t>& out) {
  // Validation is keep-last-good inside the engine; running it on the loop
  // thread briefly pauses I/O but never the engine workers.
  const auto swapped = engine_.reload_snapshot(payload);
  if (!swapped.ok()) {
    append_status(out, FrameType::kReload, id, Status::kReloadRejected, swapped.error().code);
    return;
  }
  const std::size_t frame_begin = begin_ok(out, FrameType::kReload, id);
  put_u64(out, *swapped);
  end_frame(out, frame_begin);
}

void Server::run_stats(const Pinned& pinned, std::span<const std::uint8_t>, std::uint32_t id,
                       std::vector<std::uint8_t>& out) {
  const std::size_t frame_begin = begin_ok(out, FrameType::kStats, id);
  put_u64(out, pinned.generation);
  put_u64(out, pinned.meta.rule_count);
  put_date(out, pinned.meta.source_date);
  put_u32(out, static_cast<std::uint32_t>(connections_.size()));
  put_u32(out, static_cast<std::uint32_t>(engine_.queue_depth()));
  // Analytics block: the pinned generation's census (zeroed when
  // --analytics is off); census queries are server-lifetime.
  const analytics::Census* census = pinned.census;
  put_u8(out, census ? 1 : 0);
  put_u64(out, census ? census->records() : 0);
  put_u64(out, census ? census->dropped() : 0);
  put_u64(out, census_queries_total_.load(std::memory_order_relaxed));
  put_u64(out, census ? census->state_bytes() : 0);
  end_frame(out, frame_begin);
}

// The time-travel requests (psl::store). Both run on the worker and walk
// the store's union arena directly; store-level errors are encoded here
// like any other response.
void Server::run_match_at(const Pinned&, std::span<const std::uint8_t> payload,
                          std::uint32_t id, std::vector<std::uint8_t>& out) {
  thread_local std::vector<std::string_view> hosts;
  thread_local std::vector<MatchView> views;
  std::int64_t days = 0;
  parse_match_at_request(payload, days, hosts);
  if (days < INT32_MIN || days > INT32_MAX) {
    append_status(out, FrameType::kMatchAt, id, Status::kMalformed, "store.no-version");
    return;
  }
  views.resize(hosts.size());
  const auto meta = engine_.match_at(util::Date{static_cast<std::int32_t>(days)}, hosts, views);
  if (!meta.ok()) {
    append_status(out, FrameType::kMatchAt, id, store_status(meta.error()), meta.error().code);
    return;
  }
  const std::size_t frame_begin = begin_ok(out, FrameType::kMatchAt, id);
  put_date(out, meta->source_date);
  put_u64(out, meta->rule_count);
  put_match_views(out, views);
  end_frame(out, frame_begin);
  engine_.count_queries(hosts.size());
}

void Server::run_divergence(const Pinned&, std::span<const std::uint8_t> payload,
                            std::uint32_t id, std::vector<std::uint8_t>& out) {
  std::string_view host;
  parse_divergence_request(payload, host);
  const auto ranges = engine_.divergence(host);
  if (!ranges.ok()) {
    append_status(out, FrameType::kDivergence, id, store_status(ranges.error()),
                  ranges.error().code);
    return;
  }
  const std::size_t frame_begin = begin_ok(out, FrameType::kDivergence, id);
  put_u32(out, static_cast<std::uint32_t>(ranges->size()));
  for (const store::DivergenceRange& r : *ranges) {
    put_date(out, r.first_date);
    put_date(out, r.last_date);
    put_str16(out, r.registrable_domain);
  }
  end_frame(out, frame_begin);
  engine_.count_queries(1);
}

void Server::run_subscribe(const Pinned& pinned, std::span<const std::uint8_t>,
                           std::uint32_t id, std::vector<std::uint8_t>& out) {
  const std::size_t frame_begin = begin_ok(out, FrameType::kSubscribe, id);
  put_u64(out, pinned.generation);
  end_frame(out, frame_begin);
}

void Server::run_ingest(const Pinned& pinned, std::span<const std::uint8_t> payload,
                        std::uint32_t id, std::vector<std::uint8_t>& out) {
  if (!pinned.census) {
    append_status(out, FrameType::kIngestBatch, id, Status::kUnsupported, "analytics.none");
    return;
  }
  thread_local std::vector<WireIngestRecord> records;
  thread_local std::vector<analytics::CensusRecord> batch;
  parse_ingest_request(payload, records);
  batch.clear();
  batch.reserve(records.size());
  for (const WireIngestRecord& r : records) {
    batch.push_back({r.page_host, r.resource_host, r.timestamp_ms});
  }
  // The whole batch lands in the pinned generation's census — that is the
  // ack's generation, and the atomicity contract.
  const analytics::IngestResult result =
      pinned.census->ingest(pinned.worker, pinned.matcher, batch);
  if (analytics_ingest_records_) {
    analytics_ingest_records_->add(static_cast<std::int64_t>(result.records));
  }
  if (analytics_ingest_dropped_ && result.dropped > 0) {
    analytics_ingest_dropped_->add(static_cast<std::int64_t>(result.dropped));
  }
  if (analytics_hosts_gauge_) {
    analytics_hosts_gauge_->set(static_cast<double>(pinned.census->unique_hosts()));
    analytics_sites_gauge_->set(static_cast<double>(pinned.census->sites_formed()));
    analytics_pairs_gauge_->set(static_cast<double>(pinned.census->reach_pairs()));
  }
  const std::size_t frame_begin = begin_ok(out, FrameType::kIngestBatch, id);
  put_u64(out, pinned.generation);
  put_u32(out, result.records);
  end_frame(out, frame_begin);
}

void Server::run_census(const Pinned& pinned, std::span<const std::uint8_t> payload,
                        std::uint32_t id, std::vector<std::uint8_t>& out) {
  if (!pinned.census) {
    append_status(out, FrameType::kCensusQuery, id, Status::kUnsupported, "analytics.none");
    return;
  }
  std::uint32_t top_k = 0;
  parse_census_request(payload, top_k);
  analytics::CensusSnapshot snap = pinned.census->snapshot(top_k);
  WireCensus wire;
  wire.generation = pinned.generation;
  wire.records = snap.records;
  wire.first_party = snap.first_party;
  wire.third_party = snap.third_party;
  wire.unique_hosts = snap.unique_hosts;
  wire.sites_formed = snap.sites_formed;
  wire.misbound_hosts = snap.misbound_hosts;
  wire.dropped = snap.dropped;
  wire.first_timestamp_ms = snap.first_timestamp_ms;
  wire.last_timestamp_ms = snap.last_timestamp_ms;
  wire.state_bytes = snap.state_bytes;
  wire.etlds.reserve(snap.etlds.size());
  for (auto& row : snap.etlds) {
    wire.etlds.push_back({std::move(row.etld), row.misbound});
  }
  wire.trackers.reserve(snap.trackers.size());
  for (auto& row : snap.trackers) {
    wire.trackers.push_back(
        {std::move(row.domain), row.requests, row.requests_err, row.reach, row.reach_err});
  }
  const std::size_t frame_begin = begin_ok(out, FrameType::kCensusQuery, id);
  put_census(out, wire);
  end_frame(out, frame_begin);
  census_queries_total_.fetch_add(1, std::memory_order_relaxed);
  if (analytics_census_queries_) analytics_census_queries_->add();
}

// --- completions (worker -> loop handoff) -----------------------------------

void Server::complete(Completion completion) {
  std::lock_guard<std::mutex> lock(completion_mutex_);
  completions_.push_back(std::move(completion));
  --outstanding_jobs_;
  jobs_cv_.notify_all();
  if (wake_write_fd_ >= 0) {
    const std::uint8_t byte = 1;
    (void)!::write(wake_write_fd_, &byte, 1);  // EAGAIN = wakeup already pending
  }
}

void Server::broadcast_generation() {
  WireGenerationChanged push;
  {
    std::lock_guard<std::mutex> lock(push_state_->mutex);
    if (!push_state_->pending) return;
    push_state_->pending = false;
    push.generation = push_state_->generation;
    push.rule_count = push_state_->rule_count;
    push.source_date_days = push_state_->source_date_days;
  }
  std::vector<std::uint64_t> dead;
  for (auto& [id, conn] : connections_) {
    if (!conn->subscribed || conn->draining) continue;
    // The subscribe reply (or a previous push) already told this peer about
    // this generation — e.g. it subscribed after the listener fired but
    // before this broadcast ran.
    if (conn->pushed_generation == push.generation) continue;
    push.rule_delta =
        static_cast<std::int64_t>(push.rule_count) -
        static_cast<std::int64_t>(conn->pushed_rule_count);
    // A push is not a response: no response bit, request id 0.
    const std::size_t frame_begin = begin_frame(conn->out, FrameType::kGenerationChanged, 0);
    put_generation_changed(conn->out, push);
    end_frame(conn->out, frame_begin);
    conn->pushed_generation = push.generation;
    conn->pushed_rule_count = push.rule_count;
    if (frames_out_) frames_out_->add();
    if (push_sent_) push_sent_->add();
    if (!flush_writes(*conn)) dead.push_back(id);
  }
  for (const std::uint64_t id : dead) close_connection(id);
}

void Server::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    auto it = connections_.find(completion.conn_id);
    if (it != connections_.end()) {
      Connection& conn = *it->second;
      if (conn.inflight > 0) --conn.inflight;
      conn.out.insert(conn.out.end(), completion.frame.begin(), completion.frame.end());
      conn.last_activity = std::chrono::steady_clock::now();
      observe_since(completion.latency, completion.t0);
      if (!flush_writes(conn)) close_connection(completion.conn_id);
    }
    release_buffer(std::move(completion.frame));
  }
}

}  // namespace psl::net
