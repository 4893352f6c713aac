// The load generator: one thread, non-blocking sockets, the public PSLN
// encoder, FrameDecoder and WireReader. net::Client is blocking with one
// request in flight, so it can neither pipeline nor run an open loop.
//
// Accounting. An outcome belongs to the measured window it is decided in:
// when its answer arrives or, for UDP, when its reply becomes overdue (a
// reply later than kUdpTimeoutS counts as lost). UDP latency counts from the
// datagram's due time, so a generator stall charges every request it
// delays. Every answer is checked against its precomputed oracle answer.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "layers.hpp"

namespace psl::bench::layers {

namespace {

using net::FrameType;

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

Clock::duration after(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// A sleep from `now` until `wake` (zero if it has passed), at ns precision.
timespec until(Clock::time_point wake, Clock::time_point now) {
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
  return {static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
}

enum class Outcome { kOk, kRefused, kMismatch };

Outcome check(const Request& req, std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload[0] != static_cast<std::uint8_t>(net::Status::kOk)) {
    return Outcome::kRefused;
  }
  const auto equal = [&](const std::vector<std::uint8_t>& want) {
    return payload.size() == want.size() &&
           std::memcmp(payload.data(), want.data(), want.size()) == 0;
  };
  net::WireReader reader(payload.subspan(1));
  std::uint64_t generation = 0;
  switch (req.check) {
    case Check::kExact:
      return equal(req.expect) || (!req.expect_alt.empty() && equal(req.expect_alt))
                 ? Outcome::kOk
                 : Outcome::kMismatch;
    case Check::kIngestAck: {
      std::uint32_t accepted = 0;
      return reader.u64(generation) && reader.u32(accepted) && reader.done() &&
                     generation > 0 && accepted == req.units
                 ? Outcome::kOk
                 : Outcome::kMismatch;
    }
    case Check::kReloadAck:
      return reader.u64(generation) && reader.done() && generation > 1 ? Outcome::kOk
                                                                        : Outcome::kMismatch;
    case Check::kCensus: {
      net::WireCensus census;
      return net::parse_census(payload.subspan(1), census) && census.generation > 0
                 ? Outcome::kOk
                 : Outcome::kMismatch;
    }
  }
  return Outcome::kMismatch;
}

const char* type_name(FrameType t) {
  switch (t) {
    case FrameType::kMatchBatch: return "match_batch";
    case FrameType::kMatchAt: return "match_at";
    case FrameType::kDivergence: return "divergence";
    case FrameType::kSameSiteBatch: return "same_site_batch";
    case FrameType::kIngestBatch: return "ingest_batch";
    case FrameType::kReload: return "reload";
    case FrameType::kCensusQuery: return "census_query";
    default: return "frame";
  }
}

/// Fold one answered request into the window's accounting.
void account(WireResult& r, const Request& req, std::span<const std::uint8_t> payload,
             double latency_us, std::size_t slice) {
  ++r.attempted;
  const Outcome outcome = check(req, payload);
  if (outcome == Outcome::kOk) {
    TypeStats& t = r.types[req.type];
    t.latency_us.push_back(latency_us);
    ++t.ok;
    t.units += req.units;
    if (t.slice_units.size() <= slice) {
      t.slice_units.resize(slice + 1);
      t.slice_latency_us.resize(slice + 1);
    }
    t.slice_latency_us[slice].push_back(latency_us);
    t.slice_units[slice] += req.units;
    return;
  }
  ++r.failed;
  if (outcome == Outcome::kMismatch) ++r.mismatches;
  if (r.first_error.empty()) {
    r.first_error = std::string(type_name(req.type)) +
                    (outcome == Outcome::kRefused
                         ? ": psld refused the request (status " +
                               std::to_string(payload.empty() ? -1 : payload[0]) + ")"
                         : ": answer differs from the oracle");
  }
}

/// The measured window of one load run: when it opens, its one-second
/// slices with their durations as measured, the generator's CPU time over
/// it, and how late the generator sent scheduled requests.
class Window {
 public:
  Window(Clock::time_point start, double length_s)
      : start_(start), end_(start + after(length_s)), next_slice_(start + after(1.0)) {}

  /// Advance to `now`; false once the window has closed.
  bool tick(Clock::time_point now) {
    if (!open_ && now >= start_) {
      open_ = true;
      cpu_start_ = thread_cpu_s();
      slice_begin_ = now;
    }
    if (now >= end_) return false;
    if (open_ && now >= next_slice_) {
      slice_s_.push_back(seconds(now - slice_begin_));
      slice_begin_ = now;
      next_slice_ += after(1.0);
    }
    return true;
  }
  bool open() const noexcept { return open_; }
  std::size_t slice() const noexcept { return slice_s_.size(); }
  Clock::time_point end() const noexcept { return end_; }
  void late(double us) {
    if (open_) late_us_.push_back(us);
  }

  void close(WireResult& r) {
    const auto now = Clock::now();
    if (open_) slice_s_.push_back(seconds(now - slice_begin_));
    r.slice_s = slice_s_;
    r.window_s = open_ ? seconds(now - start_) : 0.0;
    r.busy_ratio = r.window_s > 0 ? (thread_cpu_s() - cpu_start_) / r.window_s : 0.0;
    r.late_samples = late_us_.size();
    r.late_p99_us = late_us_.empty() ? 0.0 : dist_of(late_us_).p99;
  }

 private:
  Clock::time_point start_, end_, next_slice_, slice_begin_;
  bool open_ = false;
  double cpu_start_ = 0.0;
  std::vector<double> slice_s_;
  std::vector<double> late_us_;
};

struct Inflight {
  std::uint32_t id = 0;
  const Request* req = nullptr;
  Clock::time_point sent;
};

struct Conn {
  int fd = -1;
  Lane lane;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<Inflight> inflight;
  std::uint32_t next_id = 1;
  Clock::time_point next_tick;
  bool dead = false;
};

}  // namespace

double WireResult::units_per_s(FrameType t) const {
  const auto it = types.find(t);
  return it == types.end() || window_s <= 0
             ? 0.0
             : static_cast<double>(it->second.units) / window_s;
}

Dist WireResult::latency(FrameType t) const {
  const auto it = types.find(t);
  return it == types.end() ? Dist{} : dist_of(it->second.latency_us);
}

/// Slices shorter than half a second (a window's ragged end) are skipped
/// unless the window has no other.
bool WireResult::counts(std::size_t slice) const {
  return slice < slice_s.size() && (slice_s[slice] >= 0.5 || slice_s.size() == 1);
}

double WireResult::best_units_per_s(FrameType t) const {
  const auto it = types.find(t);
  if (it == types.end()) return 0.0;
  double best = 0.0;
  for (std::size_t i = 0; i < it->second.slice_units.size(); ++i) {
    if (counts(i)) {
      best = std::max(best, static_cast<double>(it->second.slice_units[i]) / slice_s[i]);
    }
  }
  return best;
}

Dist WireResult::best_latency(FrameType t) const {
  Dist best;
  const auto it = types.find(t);
  if (it == types.end()) return best;
  best.n = it->second.latency_us.size();
  bool first = true;
  for (std::size_t i = 0; i < it->second.slice_latency_us.size(); ++i) {
    if (!counts(i) || it->second.slice_latency_us[i].empty()) continue;
    const Dist d = dist_of(it->second.slice_latency_us[i]);
    best.p50 = first ? d.p50 : std::min(best.p50, d.p50);
    best.p90 = first ? d.p90 : std::min(best.p90, d.p90);
    best.p99 = first ? d.p99 : std::min(best.p99, d.p99);
    best.p999 = first ? d.p999 : std::min(best.p999, d.p999);
    first = false;
  }
  return best;
}

WireResult run_tcp(std::uint16_t port, std::vector<Lane> lanes, double warmup_s,
                   double window_s, SpanLog* trace, std::size_t trace_row) {
  const Pin pin(Pin::Side::kGenerator);
  WireResult result;
  // Timed lanes wake on their tick; the default 50 us timer slack would
  // show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<Conn> conns(lanes.size());
  const sockaddr_in addr = loopback(port);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Conn& c = conns[i];
    c.lane = std::move(lanes[i]);
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      result.first_error = std::string("connect: ") + std::strerror(errno);
      c.dead = true;
      continue;
    }
    ::fcntl(c.fd, F_SETFL, O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
  }

  const auto t0 = Clock::now();
  Window window(t0 + after(warmup_s), window_s);

  const auto fail_conn = [&](Conn& c, const std::string& why) {
    if (c.fd < 0) return;
    c.dead = true;
    if (window.open()) {
      result.attempted += c.inflight.size();
      result.failed += c.inflight.size();
      result.transport_errors += c.inflight.size();
    }
    if (result.first_error.empty()) result.first_error = why;
    ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    c.inflight.clear();
  };
  const auto flush = [&](Conn& c, std::size_t index) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno == EAGAIN) break;
      fail_conn(c, std::string("send: ") + std::strerror(errno));
      return;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (c.out.empty() ? 0u : static_cast<unsigned>(EPOLLOUT));
    ev.data.u64 = index;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
  };
  const auto send_request = [&](Conn& c, std::size_t index, const Request* req) {
    const std::uint32_t id = c.next_id++;
    net::encode_frame(c.out, req->type, id, req->payload);
    c.inflight.push_back({id, req, Clock::now()});
    flush(c, index);
  };

  for (std::size_t i = 0; i < conns.size(); ++i) {
    Conn& c = conns[i];
    if (c.dead) continue;
    c.next_tick = t0;
    if (c.lane.period_s > 0) continue;
    for (std::size_t k = 0; k < c.lane.depth; ++k) send_request(c, i, c.lane.next(0.0));
  }

  std::vector<std::uint8_t> buf(1 << 16);
  epoll_event events[16];
  for (;;) {
    const auto now = Clock::now();
    if (!window.tick(now)) break;
    auto wake = window.end();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead || c.lane.period_s <= 0) continue;
      while (c.next_tick <= now) {
        if (const Request* req = c.lane.next(seconds(now - t0))) {
          window.late(micros(now - c.next_tick));
          send_request(c, i, req);
        }
        c.next_tick += after(c.lane.period_s);
      }
      wake = std::min(wake, c.next_tick);
    }
    const timespec wait = until(wake, now);
    const int n = ::epoll_pwait2(ep, events, 16, &wait, nullptr);
    for (int e = 0; e < n; ++e) {
      const std::size_t index = events[e].data.u64;
      Conn& c = conns[index];
      if (c.dead) continue;
      if (events[e].events & EPOLLOUT) flush(c, index);
      if (!(events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) continue;
      bool closed = false;
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf.data(), buf.size(), 0);
        if (got > 0) {
          c.decoder.feed({buf.data(), static_cast<std::size_t>(got)});
          if (static_cast<std::size_t>(got) < buf.size()) break;
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && errno == EAGAIN) break;
        closed = true;
        break;
      }
      const auto received = Clock::now();
      net::Frame frame;
      for (;;) {
        const auto next = c.decoder.next(frame);
        if (next == net::FrameDecoder::Next::kNeedMore) break;
        if (next == net::FrameDecoder::Next::kError) {
          fail_conn(c, "bad frame from psld: " + c.decoder.error().message);
          break;
        }
        const auto it =
            std::find_if(c.inflight.begin(), c.inflight.end(),
                         [&](const Inflight& f) { return f.id == frame.header.id; });
        if (it == c.inflight.end()) continue;  // a push or an answer to nothing we sent
        const Inflight done = *it;
        c.inflight.erase(it);
        if (window.open()) {
          account(result, *done.req, frame.payload, micros(received - done.sent),
                  window.slice());
          if (trace) {
            trace->add(trace_row, trace->next_id(), trace->root_of(trace_row), done.sent,
                       received);
          }
        }
        if (c.lane.period_s <= 0) send_request(c, index, c.lane.next(seconds(received - t0)));
      }
      if (closed) fail_conn(c, "psld closed a connection");
    }
  }
  window.close(result);
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(ep);
  return result;
}

WireResult run_udp(std::uint16_t port, const std::vector<Request>& pool,
                   const std::vector<std::uint32_t>& order, double rate, double warmup_s,
                   double window_s, SpanLog* trace, std::size_t trace_row) {
  const Pin pin(Pin::Side::kGenerator);
  WireResult result;
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // see run_tcp
  constexpr int kSockets = 4;
  pollfd fds[kSockets];
  const sockaddr_in addr = loopback(port);
  for (int s = 0; s < kSockets; ++s) {
    fds[s] = {::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0), POLLIN, 0};
    ::connect(fds[s].fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  }

  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t request = 0;
    Clock::time_point due;
    bool answered = true;
  };
  std::size_t capacity = 1024;
  while (static_cast<double>(capacity) < rate * (kUdpTimeoutS + 0.1) * 2) capacity <<= 1;
  std::vector<Slot> ring(capacity);
  const std::size_t mask = capacity - 1;

  const auto t0 = Clock::now();
  const auto due_of = [&](std::uint64_t k) {
    return t0 + after(static_cast<double>(k) / rate);
  };
  Window window(t0 + after(warmup_s), window_s);
  const auto timeout = after(kUdpTimeoutS);
  std::uint64_t next = 0;  // sequence number of the next datagram to send
  std::uint64_t head = 0;  // oldest datagram not yet resolved
  std::vector<std::uint8_t> frame;
  constexpr std::size_t kBurst = 32;  // replies taken per recvmmsg call
  constexpr std::size_t kReplyBytes = 2048;
  std::vector<std::uint8_t> buf(kBurst * kReplyBytes);
  iovec iov[kBurst];
  mmsghdr msgs[kBurst];
  net::FrameDecoder decoder(net::kUdpMaxDatagramBytes);

  const auto take_replies = [&](int fd) {
    for (;;) {
      for (std::size_t m = 0; m < kBurst; ++m) {
        iov[m] = {buf.data() + m * kReplyBytes, kReplyBytes};
        msgs[m] = {};
        msgs[m].msg_hdr.msg_iov = &iov[m];
        msgs[m].msg_hdr.msg_iovlen = 1;
      }
      const int got = ::recvmmsg(fd, msgs, kBurst, MSG_DONTWAIT, nullptr);
      if (got <= 0) return;
      const auto received = Clock::now();
      for (int m = 0; m < got; ++m) {
        decoder.feed({buf.data() + m * kReplyBytes, msgs[m].msg_len});
        net::Frame reply;
        if ((msgs[m].msg_hdr.msg_flags & MSG_TRUNC) ||
            decoder.next(reply) != net::FrameDecoder::Next::kFrame) {
          decoder = net::FrameDecoder(net::kUdpMaxDatagramBytes);
          continue;
        }
        Slot& slot = ring[reply.header.id & mask];
        if (slot.answered || slot.id != reply.header.id || received - slot.due > timeout) {
          continue;
        }
        slot.answered = true;
        if (!window.open()) continue;
        account(result, pool[slot.request], reply.payload, micros(received - slot.due),
                window.slice());
        if (trace) {
          trace->add(trace_row, trace->next_id(), trace->root_of(trace_row), slot.due,
                     received);
        }
      }
      if (static_cast<std::size_t>(got) < kBurst) return;
    }
  };

  for (;;) {
    auto now = Clock::now();
    if (!window.tick(now)) break;
    // Send everything due, stamping how late the generator got to it.
    for (auto due = due_of(next); due <= now && next - head < capacity; due = due_of(next)) {
      Slot& slot = ring[next & mask];
      slot = {static_cast<std::uint32_t>(next), order[next % order.size()], due, false};
      frame.clear();
      net::encode_frame(frame, pool[slot.request].type, slot.id, pool[slot.request].payload);
      const auto sent = Clock::now();
      if (window.open()) ++result.sent;
      window.late(micros(sent - due));
      (void)::send(fds[next % kSockets].fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ++next;
      now = sent;
    }
    // Expire datagrams whose reply is overdue.
    for (; head < next && (ring[head & mask].answered || now - ring[head & mask].due > timeout);
         ++head) {
      Slot& slot = ring[head & mask];
      if (!slot.answered && window.open()) {
        ++result.attempted;
        ++result.failed;
        ++result.timeouts;
        if (result.first_error.empty()) {
          result.first_error = "udp: reply lost or later than 100 ms";
        }
      }
      slot.answered = true;
    }
    // Sleep until the next datagram is due or a reply arrives.
    const timespec wait =
        until(std::min(due_of(next), now + std::chrono::milliseconds(1)), now);
    if (::ppoll(fds, kSockets, &wait, nullptr) <= 0) continue;
    for (const pollfd& p : fds) {
      if (p.revents & POLLIN) take_replies(p.fd);
    }
  }
  window.close(result);
  for (const pollfd& p : fds) ::close(p.fd);
  return result;
}

bool generator_ok(const WireResult& r, std::string& why) {
  if (r.busy_ratio > 0.9) {
    why = "generator busy ratio " + std::to_string(r.busy_ratio) + " > 0.9";
    return false;
  }
  // The lateness guard needs a p99 with at least ten samples beyond it.
  if (r.late_samples >= 1000 && r.late_p99_us > 1000.0) {
    why = "generator late p99 " + std::to_string(r.late_p99_us) + " us > 1 ms";
    return false;
  }
  return true;
}

}  // namespace psl::bench::layers
