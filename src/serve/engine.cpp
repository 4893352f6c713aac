#include "psl/serve/engine.hpp"

#include <algorithm>

#include "psl/obs/span.hpp"

namespace psl::serve {

namespace {

/// psl.match.batch_size bucket bounds: powers of two up to the frame caps.
constexpr double kBatchSizeBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

}  // namespace

Engine::Engine(snapshot::Snapshot initial, EngineOptions options)
    : census_factory_(std::move(options.census_factory)),
      max_queue_depth_(options.max_queue_depth),
      cache_slots_(options.cache_slots) {
  if (options.metrics) {
    queries_ = &options.metrics->counter("serve.queries");
    batches_ = &options.metrics->counter("serve.batches");
    rejected_ = &options.metrics->counter("serve.rejected");
    reload_success_ = &options.metrics->counter("serve.reload.success");
    reload_failure_ = &options.metrics->counter("serve.reload.failure");
    cache_hits_ = &options.metrics->counter("serve.cache.hit");
    cache_misses_ = &options.metrics->counter("serve.cache.miss");
    cache_evicts_ = &options.metrics->counter("serve.cache.evict");
    queue_depth_gauge_ = &options.metrics->gauge("serve.queue_depth");
    batch_ms_ = &options.metrics->histogram("serve.batch_ms");
    batch_size_ = &options.metrics->histogram("psl.match.batch_size", kBatchSizeBounds);
  }
  const std::size_t threads = options.threads == 0 ? 1 : options.threads;
  configured_workers_ = threads;  // install() sizes the per-worker caches
  install(std::move(initial));

  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Engine::worker_loop(std::size_t worker_index) {
  for (;;) {
    std::function<void(std::size_t)> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      // Drain-on-shutdown: exit only once the queue is empty, so every
      // accepted future gets fulfilled.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_gauge_) queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    }
    job(worker_index);
  }
}

Engine::Enqueue Engine::enqueue(std::function<void(std::size_t)> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Enqueue::kStopped;
    if (queue_.size() >= max_queue_depth_) return Enqueue::kBackpressure;
    queue_.push_back(std::move(job));
    if (queue_depth_gauge_) queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return Enqueue::kOk;
}

void Engine::count_queries(std::size_t n) const noexcept {
  if (queries_) queries_->add(static_cast<std::int64_t>(n));
}

Engine::Enqueue Engine::submit_job(std::function<void(const Pinned&)> job) {
  const Enqueue outcome = enqueue([this, job = std::move(job)](std::size_t worker) {
    const auto state = current();  // one State for the whole batch
    const obs::Timer timer(batch_ms_);
    if (batches_) batches_->add();
    RegDomainCache* cache =
        worker < state->caches.size() && state->caches[worker].enabled()
            ? &state->caches[worker]
            : nullptr;
    job(Pinned{state->matcher, state->meta, state->generation, cache, this,
               state->census.get(), worker});
  });
  if (outcome == Enqueue::kBackpressure && rejected_) rejected_->add();
  return outcome;
}

// --- Pinned cached helpers ---------------------------------------------------

namespace {

/// Cache value for a computed view (the registrable domain is a suffix of
/// the stripped host, so its length fully encodes the boundary).
std::uint32_t encode_boundary(std::string_view registrable_domain) noexcept {
  return registrable_domain.empty() ? RegDomainCache::kNoDomain
                                    : static_cast<std::uint32_t>(registrable_domain.size());
}

std::string_view strip_dot(std::string_view host) noexcept {
  if (!host.empty() && host.back() == '.') host.remove_suffix(1);
  return host;
}

/// Re-attach a cached boundary to the query's own buffer.
std::string_view apply_boundary(std::string_view stripped, std::uint32_t rd_len) noexcept {
  return rd_len == RegDomainCache::kNoDomain ? std::string_view{}
                                             : stripped.substr(stripped.size() - rd_len);
}

}  // namespace

std::string_view Engine::Pinned::registrable_domain_view(std::string_view host) const noexcept {
  if (!cache) return matcher.match_view(host).registrable_domain;
  const std::string_view stripped = strip_dot(host);
  const std::uint64_t h = RegDomainCache::hash_host(stripped);
  std::uint32_t rd_len = 0;
  if (cache->lookup(h, rd_len)) {
    if (engine && engine->cache_hits_) engine->cache_hits_->add();
    return apply_boundary(stripped, rd_len);
  }
  const MatchView m = matcher.match_view(host);
  const bool evicted = cache->insert(h, encode_boundary(m.registrable_domain));
  if (engine) {
    if (engine->cache_misses_) engine->cache_misses_->add();
    if (evicted && engine->cache_evicts_) engine->cache_evicts_->add();
  }
  return m.registrable_domain;
}

bool Engine::Pinned::same_site(std::string_view a, std::string_view b) const noexcept {
  // Same semantics as psl::same_site, over the cached boundary: equal
  // non-empty registrable domains, else (both empty) dot-stripped literal
  // equality. The cached views alias the query buffers, so == compares
  // content exactly like the uncached predicate.
  const std::string_view ra = registrable_domain_view(a);
  const std::string_view rb = registrable_domain_view(b);
  if (ra.empty() || rb.empty()) {
    return ra.empty() && rb.empty() && strip_dot(a) == strip_dot(b);
  }
  return ra == rb;
}

void Engine::Pinned::registrable_domains(std::span<const std::string_view> hosts,
                                         std::span<std::string_view> out) const {
  const std::size_t n = std::min(hosts.size(), out.size());
  // Worker-thread scratch: reused across batches, so the steady-state path
  // allocates nothing.
  thread_local std::vector<std::size_t> miss_index;
  thread_local std::vector<std::string_view> miss_hosts;
  thread_local std::vector<std::uint64_t> miss_hashes;
  thread_local std::vector<MatchView> miss_views;

  if (!cache) {
    miss_views.resize(n);
    match_batch(hosts.first(n), miss_views);
    for (std::size_t i = 0; i < n; ++i) out[i] = miss_views[i].registrable_domain;
    return;
  }

  miss_index.clear();
  miss_hosts.clear();
  miss_hashes.clear();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view stripped = strip_dot(hosts[i]);
    const std::uint64_t h = RegDomainCache::hash_host(stripped);
    std::uint32_t rd_len = 0;
    if (cache->lookup(h, rd_len)) {
      out[i] = apply_boundary(stripped, rd_len);
      ++hits;
    } else {
      miss_index.push_back(i);
      miss_hosts.push_back(hosts[i]);
      miss_hashes.push_back(h);
    }
  }

  std::size_t evictions = 0;
  if (!miss_index.empty()) {
    miss_views.resize(miss_index.size());
    match_batch(miss_hosts, miss_views);  // the trie fall-through, batched
    for (std::size_t j = 0; j < miss_index.size(); ++j) {
      const std::string_view rd = miss_views[j].registrable_domain;
      out[miss_index[j]] = rd;
      if (cache->insert(miss_hashes[j], encode_boundary(rd))) ++evictions;
    }
  }
  if (engine) {
    if (hits && engine->cache_hits_) engine->cache_hits_->add(static_cast<std::int64_t>(hits));
    if (!miss_index.empty() && engine->cache_misses_)
      engine->cache_misses_->add(static_cast<std::int64_t>(miss_index.size()));
    if (evictions && engine->cache_evicts_)
      engine->cache_evicts_->add(static_cast<std::int64_t>(evictions));
  }
}

std::size_t Engine::Pinned::match_batch(std::span<const std::string_view> hosts,
                                        std::span<MatchView> out) const noexcept {
  const std::size_t n = matcher.match_batch(hosts, out);
  if (engine && engine->batch_size_ && n > 0) {
    engine->batch_size_->observe(static_cast<double>(n));
  }
  return n;
}

namespace {

/// Shared submit plumbing: wrap `work` in a packaged_task, hand it to
/// submit_job, and map the enqueue outcome onto the Result contract.
template <typename R, typename Work>
util::Result<std::future<R>> submit_typed(Engine& engine, Work work) {
  auto task = std::make_shared<std::packaged_task<R(const Engine::Pinned&)>>(std::move(work));
  auto future = task->get_future();
  switch (engine.submit_job([task](const Engine::Pinned& pinned) { (*task)(pinned); })) {
    case Engine::Enqueue::kBackpressure:
      return util::make_error("serve.backpressure", "batch queue is full");
    case Engine::Enqueue::kStopped:
      return util::make_error("serve.stopped", "engine is shutting down");
    case Engine::Enqueue::kOk:
      break;
  }
  return future;
}

}  // namespace

// --- inline queries ---------------------------------------------------------

std::string Engine::registrable_domain(std::string_view host) const {
  const auto state = current();
  if (queries_) queries_->add();
  return std::string(state->matcher.match_view(host).registrable_domain);
}

// --- batched queries ---------------------------------------------------------

util::Result<std::future<std::vector<std::string>>> Engine::submit_registrable_domains(
    std::vector<std::string> hosts) {
  return submit_typed<std::vector<std::string>>(
      *this, [this, hosts = std::move(hosts)](const Pinned& pinned) {
        std::vector<std::string_view> views(hosts.begin(), hosts.end());
        std::vector<std::string_view> domains(hosts.size());
        pinned.registrable_domains(views, domains);  // cached fast path
        std::vector<std::string> out(domains.begin(), domains.end());
        count_queries(hosts.size());
        return out;
      });
}

util::Result<std::future<std::vector<std::uint8_t>>> Engine::submit_same_site(
    std::vector<std::pair<std::string, std::string>> pairs) {
  return submit_typed<std::vector<std::uint8_t>>(
      *this, [this, pairs = std::move(pairs)](const Pinned& pinned) {
        std::vector<std::uint8_t> out;
        out.reserve(pairs.size());
        for (const auto& [a, b] : pairs) {
          out.push_back(pinned.same_site(a, b) ? 1 : 0);
        }
        count_queries(pairs.size());
        return out;
      });
}

util::Result<std::future<std::vector<Match>>> Engine::submit_match(
    std::vector<std::string> hosts) {
  return submit_typed<std::vector<Match>>(
      *this, [this, hosts = std::move(hosts)](const Pinned& pinned) {
        std::vector<std::string_view> views(hosts.begin(), hosts.end());
        std::vector<MatchView> matches(hosts.size());
        pinned.match_batch(views, matches);
        std::vector<Match> out;
        out.reserve(hosts.size());
        for (const MatchView& m : matches) out.push_back(m.to_match());
        count_queries(hosts.size());
        return out;
      });
}

// --- hot reload --------------------------------------------------------------

std::uint64_t Engine::install(snapshot::Snapshot next) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  const std::uint64_t generation = ++next_generation_;
  auto fresh =
      std::make_shared<State>(State{std::move(next.matcher), next.meta, generation, {}, {}});
  // Cold caches, one per worker. Built before publication (the state_mutex_
  // handoff below is the happens-before edge workers read through), sized
  // here so even the constructor's initial install — which runs before the
  // worker threads exist — gets the full set.
  fresh->caches.reserve(configured_workers_);
  for (std::size_t i = 0; i < configured_workers_; ++i) {
    fresh->caches.emplace_back(cache_slots_);
  }
  // Fresh census per generation, built before publication like the caches:
  // no ingest record can ever be attributed across a generation boundary.
  if (census_factory_) fresh->census = census_factory_(configured_workers_);
  const snapshot::Metadata meta = fresh->meta;
  std::shared_ptr<const State> state = std::move(fresh);
  {
    std::lock_guard<std::mutex> state_lock(state_mutex_);
    state_.swap(state);
  }
  // `state` (the previous State) is released outside state_mutex_, so a
  // reader never waits on the old matcher's destruction.
  //
  // Notify AFTER publication (a listener that queries sees the new
  // generation) and still under reload_mutex_ (notifications arrive in
  // generation order, never interleaved).
  std::vector<std::pair<ListenerId, GenerationListener>> listeners;
  {
    std::lock_guard<std::mutex> listener_lock(listener_mutex_);
    listeners = listeners_;
  }
  for (const auto& [id, listener] : listeners) listener(generation, meta);
  return generation;
}

Engine::ListenerId Engine::add_generation_listener(GenerationListener listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  const ListenerId id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Engine::remove_generation_listener(ListenerId id) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  std::erase_if(listeners_, [id](const auto& entry) { return entry.first == id; });
}

std::uint64_t Engine::swap(snapshot::Snapshot next) {
  const std::uint64_t generation = install(std::move(next));
  if (reload_success_) reload_success_->add();
  return generation;
}

std::uint64_t Engine::reload_list(const List& list, snapshot::Metadata meta) {
  if (meta.rule_count == 0) meta.rule_count = list.rules().size();
  return swap(snapshot::Snapshot{CompiledMatcher(list), meta});
}

util::Result<std::uint64_t> Engine::reload_snapshot(std::span<const std::uint8_t> bytes) {
  auto loaded = snapshot::load_copy(bytes);
  if (!loaded) {
    if (reload_failure_) reload_failure_->add();
    return loaded.error();  // keep-last-good: state_ untouched
  }
  return swap(std::move(loaded).value());
}

util::Result<std::uint64_t> Engine::reload_file(const std::string& path) {
  auto loaded = snapshot::load_file(path);
  if (!loaded) {
    if (reload_failure_) reload_failure_->add();
    return loaded.error();  // keep-last-good: state_ untouched
  }
  return swap(std::move(loaded).value());
}

// --- introspection ------------------------------------------------------------

std::uint64_t Engine::generation() const noexcept { return current()->generation; }

snapshot::Metadata Engine::metadata() const { return current()->meta; }

std::size_t Engine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace psl::serve
