// The traced run: one workload's hosts through each layer's public
// functions in turn, one ledger row per layer, every call a span. Rows run
// bottom up — the trie walk, the batch walk, the engine with and without its
// cache, PSLN framing, then psld over TCP, UDP, the poll and io_uring loops
// and a 2-shard fleet — beside the store, analytics and reload paths. A
// layer's self time is its row minus the row beneath it.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <numeric>

#include "layers.hpp"
#include "psl/analytics/census.hpp"
#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/store/store.hpp"
#include "psl/util/rng.hpp"
#include "psl/util/stats.hpp"

namespace psl::bench::layers {

Dist dist_of(std::span<const double> samples) {
  return {samples.size(), util::percentile(samples, 50), util::percentile(samples, 90),
          util::percentile(samples, 99), util::percentile(samples, 99.9)};
}

std::size_t SpanLog::open_row(std::string name) {
  rows_.push_back({std::move(name), next_id(), {}, 0});
  return rows_.size() - 1;
}

void SpanLog::add(std::size_t row, std::uint64_t id, std::uint64_t parent,
                  Clock::time_point start, Clock::time_point end) {
  Row& r = rows_[row];
  if (r.spans.size() >= kMaxSpansPerRow) {
    ++r.dropped;
    return;
  }
  using std::chrono::nanoseconds;
  r.spans.push_back({id, parent,
                     std::chrono::duration_cast<nanoseconds>(start.time_since_epoch()).count(),
                     std::chrono::duration_cast<nanoseconds>(end - start).count()});
}

void SpanLog::write_json(std::ostream& out) const {
  out << "{\"epoch\": \"steady_clock\","
         " \"span\": [\"id\", \"parent\", \"start_ns\", \"dur_ns\"], \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << r.name << "\", \"root\": " << r.root
        << ", \"dropped\": " << r.dropped << ", \"spans\": [";
    for (std::size_t s = 0; s < r.spans.size(); ++s) {
      const Span& sp = r.spans[s];
      out << (s ? "," : "") << '[' << sp.id << ',' << sp.parent << ',' << sp.start_ns << ','
          << sp.dur_ns << ']';
    }
    out << "]}";
  }
  out << "\n]}\n";
}

namespace {

constexpr std::size_t kBatch = 256;          ///< hosts per call, as in a match_batch request
constexpr std::size_t kMatchAtBatch = 64;    ///< hosts per store call, as in a match_at request
constexpr std::size_t kIngestBatch = 1024;   ///< records per ingest call
constexpr std::size_t kEngineInFlight = 4;   ///< jobs kept queued, as 4 conns would
constexpr std::size_t kWirePoolRequests = 1024;
constexpr std::size_t kUdpPoolHosts = 65536;

Clock::duration after(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Time `call(k)` back to back for `slice_s` (at least once); each call is
/// one span under the row's root. `call` returns the units it processed.
template <class Call>
Row time_calls(std::string name, double slice_s, SpanLog& trace, Call&& call) {
  Row row;
  row.name = std::move(name);
  const std::size_t handle = trace.open_row(row.name);
  std::vector<double> us;
  const auto stop = Clock::now() + after(slice_s);
  for (std::uint64_t k = 0;; ++k) {
    const auto t0 = Clock::now();
    if (k > 0 && t0 >= stop) break;
    row.units += call(k);
    const auto t1 = Clock::now();
    us.push_back(micros(t1 - t0));
    trace.add(handle, trace.next_id(), trace.root_of(handle), t0, t1);
  }
  row.calls = us.size();
  row.seconds = std::accumulate(us.begin(), us.end(), 0.0) / 1e6;
  row.us = dist_of(us);
  return row;
}

double ns_per_unit(const Row& row) {
  return row.units ? row.seconds * 1e9 / static_cast<double>(row.units) : 0.0;
}

double units_per_s(const Row& row) {
  return row.seconds > 0 ? static_cast<double>(row.units) / row.seconds : 0.0;
}

volatile std::size_t g_sink = 0;  // keeps the timed walks observable

/// submit_job + Pinned::registrable_domains over 256-host batches with
/// kEngineInFlight jobs queued. Each call span has two children: the queue
/// wait (submit to job start) and the job itself, whose summed duration
/// lands in `job_s` (the two workers overlap, so wall time would halve it).
Row engine_row(std::string name, const snapshot::Snapshot& snap, std::size_t cache_slots,
               const std::vector<std::string_view>& hosts, double slice_s, SpanLog& trace,
               obs::MetricsRegistry& metrics, std::vector<double>& queue_wait_us,
               double& job_s) {
  struct Done {
    std::size_t slot;
    Clock::time_point start, end;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Done> done;  // guarded by mutex
  serve::Engine engine(snapshot::Snapshot{snap.matcher, snap.meta},
                       {.threads = 2, .cache_slots = cache_slots, .metrics = &metrics});

  Row row;
  row.name = std::move(name);
  const std::size_t handle = trace.open_row(row.name);
  struct Slot {
    bool busy = false;
    Clock::time_point submitted;
    std::size_t hosts = 0;
  };
  std::array<Slot, kEngineInFlight> slots{};
  std::vector<double> us;
  const std::size_t batches = hosts.size() / kBatch;
  const auto t_begin = Clock::now();
  const auto stop = t_begin + after(slice_s);
  std::size_t next_batch = 0, busy = 0;
  for (;;) {
    const auto now = Clock::now();
    for (std::size_t s = 0; s < slots.size() && now < stop; ++s) {
      if (slots[s].busy) continue;
      const std::span<const std::string_view> batch(
          hosts.data() + (next_batch++ % batches) * kBatch, kBatch);
      slots[s] = {true, Clock::now(), batch.size()};
      ++busy;
      const auto enq = engine.submit_job([&, s, batch](const serve::Engine::Pinned& pinned) {
        const auto start = Clock::now();
        thread_local std::vector<std::string_view> out;
        out.resize(batch.size());
        pinned.registrable_domains(batch, out);
        const auto end = Clock::now();
        {
          std::lock_guard<std::mutex> lock(mutex);
          done.push_back({s, start, end});
        }
        cv.notify_one();
      });
      if (enq != serve::Engine::Enqueue::kOk) {
        slots[s].busy = false;
        --busy;
        row.note = "engine refused a job";
      }
    }
    if (busy == 0) break;
    std::vector<Done> finished;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !done.empty(); });
      finished.swap(done);
    }
    const auto seen = Clock::now();
    for (const Done& d : finished) {
      Slot& slot = slots[d.slot];
      const std::uint64_t call = trace.next_id();
      trace.add(handle, call, trace.root_of(handle), slot.submitted, seen);
      trace.add(handle, trace.next_id(), call, slot.submitted, d.start);
      trace.add(handle, trace.next_id(), call, d.start, d.end);
      us.push_back(micros(seen - slot.submitted));
      queue_wait_us.push_back(micros(d.start - slot.submitted));
      job_s += seconds(d.end - d.start);
      row.units += slot.hosts;
      slot.busy = false;
      --busy;
    }
  }
  row.seconds = seconds(Clock::now() - t_begin);
  row.calls = us.size();
  row.us = dist_of(us);
  return row;
}

/// Boot psld with `flags`, drive `load` against it and fill a wire row.
Row wire_row(std::string name, const std::string& psld, const std::string& snapshot_path,
             std::vector<std::string> flags,
             const std::function<WireResult(std::uint16_t)>& load, net::FrameType primary,
             WireResult& result, std::string& metrics, std::string* backend = nullptr) {
  Row row;
  row.name = std::move(name);
  std::vector<std::string> args = {"--listen", "127.0.0.1:0", "--threads", "2", "--snapshot",
                                   snapshot_path};
  args.insert(args.end(), flags.begin(), flags.end());
  auto started = Psld::start(psld, args);
  if (!started.ok()) {
    row.note = "psld: " + started.error().message;
    result.first_error = row.note;
    return row;
  }
  if (backend) *backend = started->backend();
  auto served = load_and_stop(*std::move(started),
                              [&](std::uint16_t port) { result = load(port); });
  if (!served.ok()) {
    row.note = served.error().message;
    if (result.first_error.empty()) result.first_error = row.note;
    return row;
  }
  metrics = served->metrics;
  const auto it = result.types.find(primary);
  if (it != result.types.end()) {
    row.calls = it->second.ok;
    row.units = it->second.units;
    row.us = dist_of(it->second.latency_us);
  }
  row.seconds = result.window_s;
  return row;
}

}  // namespace

std::vector<Row> run_ladder(const Inputs& inputs, const Fixture& fixture,
                            const std::string& psld, double seconds_total, SpanLog& trace,
                            std::vector<Metric>& per_layer, WireResult& wire_totals) {
  std::vector<Row> rows;
  rows.reserve(32);  // rows are filled in through references as they are pushed
  // Record `value` as a per-layer metric and on the row it came from.
  const auto metric = [&](Row& row, const std::string& name, double value, const char* unit,
                          bool higher) {
    row.metrics.push_back({name, value, unit, higher});
    per_layer.push_back({name, value, unit, higher});
  };
  const auto push = [&](Row row) -> Row& {
    rows.push_back(std::move(row));
    return rows.back();
  };
  const std::vector<std::string_view>& hosts = inputs.hosts;
  const List& newest = fixture.history.latest();
  const snapshot::Metadata meta{
      fixture.history.version_date(fixture.history.version_count() - 1), newest.rule_count()};
  const CompiledMatcher matcher(newest);
  const std::size_t batches = hosts.size() / kBatch;
  const double slice = std::max(0.05, seconds_total / 26.0);
  const double wire_window = std::max(0.3, seconds_total / 12.0);
  const double wire_warmup = std::min(0.3, wire_window);
  const auto batch_of = [&](std::uint64_t k) {
    return std::span<const std::string_view>(hosts.data() + (k % batches) * kBatch, kBatch);
  };

  // --- psl: the trie walk, one host at a time, then batched.
  std::size_t sink = 0;
  {
    Row& row = push(time_calls("psl.match_view", slice, trace, [&](std::uint64_t k) {
      for (const std::string_view h : batch_of(k)) {
        sink += matcher.match_view(h).registrable_domain.size();
      }
      return kBatch;
    }));
    metric(row, "psl.match_view.ns_per_host", ns_per_unit(row), "ns", false);
  }
  {
    std::vector<MatchView> views(kBatch);
    Row& row = push(time_calls("psl.match_batch", slice, trace, [&](std::uint64_t k) {
      matcher.match_batch(batch_of(k), views);
      sink += views[0].registrable_domain.size();
      return kBatch;
    }));
    metric(row, "psl.match_batch.ns_per_host", ns_per_unit(row), "ns", false);
  }

  // --- serve: the engine hand-off with the per-worker cache, then without.
  const snapshot::Snapshot snap{matcher, meta};
  {
    obs::MetricsRegistry metrics;
    std::vector<double> queue_wait_us;
    double job_s = 0.0;
    Row& row = push(engine_row("serve.engine", snap, 16384, hosts, slice, trace, metrics,
                               queue_wait_us, job_s));
    metric(row, "serve.engine.ns_per_host", job_s * 1e9 / static_cast<double>(row.units), "ns",
           false);
    const double hit = static_cast<double>(metrics.counter("serve.cache.hit").value());
    const double miss = static_cast<double>(metrics.counter("serve.cache.miss").value());
    const double evict = static_cast<double>(metrics.counter("serve.cache.evict").value());
    metric(row, "serve.cache.hit_ratio", hit + miss > 0 ? hit / (hit + miss) : 0.0, "ratio",
           true);
    metric(row, "serve.cache.evict_per_miss", miss > 0 ? evict / miss : 0.0, "ratio", false);
    const Dist wait = dist_of(queue_wait_us);
    metric(row, "serve.engine.queue_wait_us.p50", wait.p50, "us", false);
    metric(row, "serve.engine.queue_wait_us.p99", wait.p99, "us", false);
  }
  {
    obs::MetricsRegistry metrics;
    std::vector<double> queue_wait_us;
    double job_s = 0.0;
    Row& row = push(engine_row("serve.engine.nocache", snap, 0, hosts, slice, trace, metrics,
                               queue_wait_us, job_s));
    metric(row, "serve.engine.nocache.ns_per_host",
           job_s * 1e9 / static_cast<double>(row.units), "ns", false);
  }

  // --- net.frame: PSLN encode and decode of match_batch requests, no socket.
  {
    std::vector<std::uint8_t> out;
    Row& row = push(time_calls("net.frame.encode", slice, trace, [&](std::uint64_t k) {
      out.clear();
      const std::size_t begin = net::begin_frame(out, net::FrameType::kMatchBatch,
                                                 static_cast<std::uint32_t>(k));
      net::put_u32(out, kBatch);
      for (const std::string_view h : batch_of(k)) net::put_str16(out, h);
      net::end_frame(out, begin);
      return kBatch;
    }));
    metric(row, "net.frame.encode_ns_per_host", ns_per_unit(row), "ns", false);
  }
  {
    std::vector<std::vector<std::uint8_t>> frames(std::min<std::size_t>(batches, 64));
    for (std::size_t k = 0; k < frames.size(); ++k) {
      const std::size_t begin = net::begin_frame(frames[k], net::FrameType::kMatchBatch, 1);
      net::put_u32(frames[k], kBatch);
      for (const std::string_view h : batch_of(k)) net::put_str16(frames[k], h);
      net::end_frame(frames[k], begin);
    }
    net::FrameDecoder decoder;
    std::vector<std::string_view> parsed;
    Row& row = push(time_calls("net.frame.decode", slice, trace, [&](std::uint64_t k) {
      decoder.feed(frames[k % frames.size()]);
      net::Frame frame;
      if (decoder.next(frame) != net::FrameDecoder::Next::kFrame ||
          !net::parse_match_request(frame.payload, parsed)) {
        return std::size_t{0};
      }
      return parsed.size();
    }));
    metric(row, "net.frame.decode_ns_per_host", ns_per_unit(row), "ns", false);
  }

  // --- store: time travel in-process over the fixture, warm.
  {
    auto opened = store::StoreView::open(fixture.store_path);
    if (!opened.ok()) {
      std::cerr << "store fixture: " << opened.error().message << "\n";
      std::exit(2);
    }
    const auto view = *opened;
    const std::size_t versions = fixture.history.version_count();
    util::Rng rng(0x5707e);
    std::vector<util::Date> dates(4096);
    for (auto& d : dates) d = fixture.history.version_date(rng.below(versions));
    const auto t0 = Clock::now();
    for (std::size_t v = 0; v < versions; ++v) (void)view->open_version(v);
    const double materialize_ms = seconds(Clock::now() - t0) * 1e3;

    Row& open_row = push(time_calls("store.open_at", slice, trace, [&](std::uint64_t k) {
      return view->open_at(dates[k % dates.size()]).ok() ? std::size_t{1} : 0;
    }));
    open_row.metrics.push_back({"materialize_all_ms", materialize_ms, "ms", false});
    metric(open_row, "store.open_at_us", open_row.us.p50, "us", false);
    metric(open_row, "store.file_mib", fixture.store_file_mib, "MiB", false);

    std::vector<MatchView> views(kMatchAtBatch);
    const std::size_t at_batches = hosts.size() / kMatchAtBatch;
    Row& match_row = push(time_calls("store.match_at", slice, trace, [&](std::uint64_t k) {
      auto version = view->open_at(dates[k % dates.size()]);
      if (!version.ok()) return std::size_t{0};
      version->matcher.match_batch(
          {hosts.data() + (k % at_batches) * kMatchAtBatch, kMatchAtBatch}, views);
      return kMatchAtBatch;
    }));
    metric(match_row, "store.match_at.ns_per_host", ns_per_unit(match_row), "ns", false);

    Row& div_row = push(time_calls("store.divergence", slice, trace, [&](std::uint64_t k) {
      return view->divergence(hosts[(k * 7919) % hosts.size()]).ok() ? std::size_t{1} : 0;
    }));
    metric(div_row, "store.divergence_us", div_row.us.p50, "us", false);
  }

  // --- analytics: Census::ingest over (hosts[2i], hosts[2i+1]) records.
  {
    analytics::Census census({}, 1);
    std::vector<analytics::CensusRecord> records;
    const std::size_t pairs = hosts.size() / 2;
    Row& row = push(time_calls("analytics.ingest", slice, trace, [&](std::uint64_t k) {
      records.clear();
      for (std::size_t i = 0; i < kIngestBatch; ++i) {
        const std::size_t p = (k * kIngestBatch + i) % pairs;
        records.push_back({hosts[2 * p], hosts[2 * p + 1], k * kIngestBatch + i});
      }
      return static_cast<std::size_t>(census.ingest(0, matcher, records).records);
    }));
    metric(row, "analytics.ingest.ns_per_record", ns_per_unit(row), "ns", false);
    metric(row, "analytics.state_mib",
           static_cast<double>(census.state_bytes()) / (1024.0 * 1024.0), "MiB", false);
  }

  // --- reload: compile, validate-and-load, and swap into a live engine.
  const std::string bytes = snapshot::serialize(matcher, meta);
  const std::span<const std::uint8_t> raw(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                          bytes.size());
  {
    Row& row = push(time_calls("serve.snapshot.compile", slice, trace, [&](std::uint64_t) {
      sink += snapshot::serialize(CompiledMatcher(newest), meta).size();
      return std::size_t{1};
    }));
    metric(row, "serve.snapshot.compile_ms", row.us.p50 / 1e3, "ms", false);
  }
  {
    Row& row = push(time_calls("serve.snapshot.load", slice, trace, [&](std::uint64_t) {
      return snapshot::load_copy(raw).ok() ? std::size_t{1} : 0;
    }));
    metric(row, "serve.snapshot.load_ms", row.us.p50 / 1e3, "ms", false);
  }
  {
    serve::Engine engine(snapshot::Snapshot{matcher, meta}, {.threads = 2});
    Row& row = push(time_calls("serve.engine.swap", slice, trace, [&](std::uint64_t) {
      return engine.reload_snapshot(raw).ok() ? std::size_t{1} : 0;
    }));
    metric(row, "serve.engine.swap_ms", row.us.p50 / 1e3, "ms", false);
  }

  // --- psld over the wire: every wire row serves the newest list from a
  // snapshot and answers match_batch (TCP) or match (UDP) for the same hosts.
  const std::string snapshot_path = fixture.dir + "/ladder.psnap";
  (void)snapshot::write_file(snapshot_path, matcher, meta);
  const std::vector<Request> tcp_pool = match_pool(newest, hosts, kBatch, kWirePoolRequests);
  const std::vector<Request> udp_pool =
      match_pool(newest, {hosts.data(), std::min(hosts.size(), kUdpPoolHosts)}, 1,
                 kUdpPoolHosts);
  std::vector<std::uint32_t> udp_order(udp_pool.size());
  std::iota(udp_order.begin(), udp_order.end(), 0u);
  const auto fold = [&](const WireResult& r) {
    wire_totals.attempted += r.attempted;
    wire_totals.failed += r.failed;
    wire_totals.mismatches += r.mismatches;
    wire_totals.transport_errors += r.transport_errors;
    if (wire_totals.first_error.empty()) wire_totals.first_error = r.first_error;
    wire_totals.busy_ratio = std::max(wire_totals.busy_ratio, r.busy_ratio);
    wire_totals.late_p99_us = std::max(wire_totals.late_p99_us, r.late_p99_us);
    wire_totals.late_samples = std::max(wire_totals.late_samples, r.late_samples);
  };
  const auto tcp_load = [&](SpanLog* spans, std::size_t handle) {
    return [&, spans, handle](std::uint16_t port) {
      return run_tcp(port, closed_lanes(tcp_pool, 4, 4), wire_warmup, wire_window, spans,
                     handle);
    };
  };
  WireResult untraced, traced, udp, poll, uring, fleet;
  std::string metrics_text, backend;
  const double base_rate =
      units_per_s(push(wire_row("net.tcp.untraced", psld, snapshot_path, {},
                                tcp_load(nullptr, 0), net::FrameType::kMatchBatch, untraced,
                                metrics_text)));
  fold(untraced);
  {
    const std::size_t handle = trace.open_row("net.tcp");
    Row& row = push(wire_row("net.tcp", psld, snapshot_path, {}, tcp_load(&trace, handle),
                             net::FrameType::kMatchBatch, traced, metrics_text));
    fold(traced);
    metric(row, "net.tcp.hosts_per_s", units_per_s(row), "1/s", true);
    metric(row, "net.tcp.p50_us", row.us.p50, "us", false);
    metric(row, "net.tcp.p99_us", row.us.p99, "us", false);
    const double queries = metric_sum(metrics_text, "serve.queries");
    metric(row, "net.server.bytes_per_host",
           queries > 0 ? (metric_sum(metrics_text, "net.bytes_in") +
                          metric_sum(metrics_text, "net.bytes_out")) / queries
                       : 0.0,
           "B", false);
    const double frames = metric_sum(metrics_text, "net.frames_in");
    metric(row, "net.server.backpressure_ratio",
           frames > 0 ? metric_sum(metrics_text, "net.reject.backpressure") / frames : 0.0,
           "ratio", false);
    metric(row, "gen.busy_ratio", traced.busy_ratio, "ratio", false);
    metric(row, "trace.overhead_ratio",
           units_per_s(row) > 0 ? base_rate / units_per_s(row) : 0.0, "ratio", false);
  }
  {
    const std::size_t handle = trace.open_row("net.udp");
    Row& row = push(wire_row(
        "net.udp", psld, snapshot_path, {"--udp"},
        [&](std::uint16_t port) {
          return run_udp(port, udp_pool, udp_order, kUdpRate, wire_warmup, wire_window, &trace,
                         handle);
        },
        net::FrameType::kMatchBatch, udp, metrics_text));
    fold(udp);
    metric(row, "net.udp.p50_us", row.us.p50, "us", false);
    metric(row, "net.udp.p99_us", row.us.p99, "us", false);
    metric(row, "net.udp.loss_ratio",
           udp.sent ? static_cast<double>(udp.timeouts) / static_cast<double>(udp.sent) : 0.0,
           "ratio", false);
    metric(row, "gen.late_p99_us", udp.late_p99_us, "us", false);
  }
  {
    Row& row = push(wire_row("net.loop.poll", psld, snapshot_path, {"--backend", "poll"},
                             tcp_load(nullptr, 0), net::FrameType::kMatchBatch, poll,
                             metrics_text));
    fold(poll);
    metric(row, "net.loop.poll.hosts_per_s", units_per_s(row), "1/s", true);
  }
  {
    Row& row = push(wire_row("net.loop.io_uring", psld, snapshot_path,
                             {"--backend", "io_uring"}, tcp_load(nullptr, 0),
                             net::FrameType::kMatchBatch, uring, metrics_text, &backend));
    fold(uring);
    if (backend != "io_uring") row.note = "n/a: psld fell back to " + backend;
    metric(row, "net.loop.io_uring.hosts_per_s", units_per_s(row), "1/s", true);
  }
  {
    Row& row = push(wire_row("fleet.shards2", psld, snapshot_path,
                             {"--shards", "2", "--threads", "1"}, tcp_load(nullptr, 0),
                             net::FrameType::kMatchBatch, fleet, metrics_text));
    fold(fleet);
    metric(row, "fleet.shards2.hosts_per_s", units_per_s(row), "1/s", true);
    metric(row, "fleet.scaling_ratio", base_rate > 0 ? units_per_s(row) / base_rate : 0.0,
           "ratio", true);
  }
  g_sink = sink;
  return rows;
}

}  // namespace psl::bench::layers
