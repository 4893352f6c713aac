// psl::serve::Engine — RCU hot-swappable PSL query service (layer 2 of
// psl::serve, on top of psl::snapshot).
//
// A long-lived serving process answers registrable-domain / same-site /
// match queries against a CompiledMatcher while the underlying list is
// re-fetched and swapped in behind it. The engine makes that safe and
// observable:
//
//   * RCU snapshot semantics. The current matcher (plus its provenance and
//     a monotone generation number) lives in one immutable State object
//     behind a shared_ptr. Readers pin the pointer once (a refcount bump
//     under a mutex held only for the copy — no allocation, no waiting on
//     writers doing real work) and keep the State alive for the duration of
//     their batch; writers build a complete replacement State off to the
//     side and publish it with a single pointer swap. Matching itself never
//     holds a lock, there are no torn reads, and a swap never invalidates
//     in-flight queries. (A std::atomic<shared_ptr> would shave the mutex,
//     but libstdc++'s lock-bit implementation unlocks its load with a
//     relaxed RMW, which TSan — and a strict reading of the memory model —
//     flags as a race against the next store; the mutex is the verifiable
//     choice and costs a few ns per *batch*, not per query.)
//   * Swap visibility is batch-granular: a batched job resolves the State
//     exactly once, when a worker picks it up, so every answer inside one
//     batch comes from the same list version. Single inline queries resolve
//     per call.
//   * Keep-last-good reloads. reload_snapshot()/reload_file() validate the
//     candidate bytes first (psl::snapshot's loader) and only swap on
//     success; any failure leaves the serving state untouched and returns
//     the loader's error.
//   * Bounded queue with explicit backpressure. Batches run on a fixed
//     worker pool behind a queue capped at max_queue_depth; a submit
//     against a full queue is REJECTED immediately ("serve.backpressure")
//     rather than queued unboundedly — the caller decides whether to retry,
//     shed, or block. Submits after shutdown return "serve.stopped".
//   * Per-worker registrable-domain caches. Each State carries one
//     RegDomainCache per worker (strictly single-writer: worker i touches
//     only caches[i], so the caches need no locks even though the State is
//     shared). Because the caches live INSIDE the immutable State, RCU
//     hot-swap invalidates them for free: a new generation publishes new
//     cold caches, old readers drain on the old ones, and a stale boundary
//     can never be served across a reload. Batched jobs reach the cached
//     path through Pinned's helpers; cache hits skip the trie entirely,
//     misses fall through to CompiledMatcher::match_batch (one match_view
//     walk per host).
//   * Instrumentation (when given a MetricsRegistry): counters
//     serve.queries / serve.batches / serve.rejected /
//     serve.reload.success / serve.reload.failure / serve.cache.hit /
//     serve.cache.miss / serve.cache.evict, gauge serve.queue_depth,
//     histograms serve.batch_ms and psl.match.batch_size.
//
// Lifecycle: construct with an initial snapshot (compile a List or load a
// psl::snapshot file), submit work, swap/reload at will from any thread.
// The destructor stops intake, drains the queue (every accepted future is
// fulfilled), and joins the workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "psl/obs/metrics.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/regdomain_cache.hpp"
#include "psl/serve/snapshot.hpp"
#include "psl/util/result.hpp"

namespace psl::analytics {
class Census;
}  // namespace psl::analytics

namespace psl::store {
class StoreView;
struct DivergenceRange;
}  // namespace psl::store

namespace psl::serve {

struct EngineOptions {
  std::size_t threads = 2;           ///< worker threads (clamped to >= 1)
  std::size_t max_queue_depth = 64;  ///< pending batches before rejection
  /// Per-worker registrable-domain cache slots (rounded up to a power of
  /// two; 0 disables caching — every query walks the trie).
  std::size_t cache_slots = 16384;
  obs::MetricsRegistry* metrics = nullptr;  ///< optional; null = uninstrumented
  /// When set, every installed State carries a fresh analytics::Census from
  /// this factory (called with the worker count; hot swap ⇒ fresh census —
  /// the same RCU invalidation story as the per-worker caches). Wire it via
  /// analytics::census_factory(); psl_serve itself never links
  /// psl_analytics, the factory is an opaque std::function.
  std::function<std::shared_ptr<analytics::Census>(std::size_t shards)> census_factory =
      nullptr;
};

class Engine {
 public:
  explicit Engine(snapshot::Snapshot initial, EngineOptions options = {});
  ~Engine();  // stops intake, drains accepted batches, joins workers
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- generic batched jobs (the primitive the typed submits build on) ----

  /// Outcome of handing work to the bounded queue.
  enum class Enqueue { kOk, kBackpressure, kStopped };

  /// The serving state pinned for one batch: references stay valid for the
  /// duration of the job callback (the worker holds the State shared_ptr).
  ///
  /// Pinned's helpers are the CANONICAL batch-lookup entrypoint — the one
  /// implementation of the cached batch fast path. They consult this
  /// worker's registrable-domain cache first and fall through to the pinned
  /// matcher's match_batch, so every front-end (psl::net::Server, the typed
  /// submit_* wrappers below, the C API engine mirror) gets cache hits,
  /// batched miss handling, and instrumentation from one place. New callers
  /// should run through submit_job + these helpers; the submit_* methods
  /// exist as owning-type conveniences and delegate here, never the other
  /// way around (docs/API.md, "Batch lookups: which entrypoint").
  struct Pinned {
    const CompiledMatcher& matcher;
    const snapshot::Metadata& meta;
    std::uint64_t generation;
    /// This worker's cache inside the pinned State; null when caching is
    /// disabled or the pin is inline (run_inline). Single-writer: only this
    /// worker, only during this batch.
    RegDomainCache* cache = nullptr;
    const Engine* engine = nullptr;  ///< for cache/batch instrumentation
    /// This generation's analytics census (null when analytics is off).
    /// Ingest through it with `worker` as the shard index: the census
    /// belongs to the pinned State, so a batch can never write across a
    /// generation boundary.
    analytics::Census* census = nullptr;
    std::size_t worker = 0;  ///< index of the worker running this batch

    /// Cached single lookup: the registrable domain of `host` as a view
    /// into `host`'s own buffer ("" when it has none). Hits skip the trie.
    std::string_view registrable_domain_view(std::string_view host) const noexcept;
    /// Cached same-site predicate; semantics identical to psl::same_site.
    bool same_site(std::string_view a, std::string_view b) const noexcept;
    /// Cached batch: out[i] = registrable-domain view into hosts[i]. Hits
    /// skip the trie; misses are batched through matcher.match_batch.
    void registrable_domains(std::span<const std::string_view> hosts,
                             std::span<std::string_view> out) const;
    /// Instrumented full-result batch (no cache — MatchView carries more
    /// than a boundary); observes psl.match.batch_size.
    std::size_t match_batch(std::span<const std::string_view> hosts,
                            std::span<MatchView> out) const noexcept;
  };

  /// Run `job` on a worker against exactly one pinned State (the engine's
  /// batch-granular swap-visibility contract). Counts serve.batches and
  /// serve.batch_ms; a kBackpressure outcome counts serve.rejected. Callers
  /// that answer queries report them via count_queries(). Accepted jobs are
  /// always eventually run (shutdown drains the queue). This is the hook
  /// external front-ends (psl::net::Server) feed decoded batches through.
  Enqueue submit_job(std::function<void(const Pinned&)> job);

  /// Add `n` to serve.queries on behalf of a submit_job batch.
  void count_queries(std::size_t n) const noexcept;

  // --- inline queries (no queue; resolve the State per call) -------------

  /// Run `fn` on the calling thread against the current State, pinned for
  /// the call: the inline twin of submit_job, with the same Pinned helpers
  /// and the same count_queries() duty. The pin carries no cache (worker
  /// caches are single-writer and this thread is no worker), so cache-aware
  /// helpers walk the trie, exactly as match_batch does.
  /// Returns whatever `fn` returns.
  template <typename Fn>
  decltype(auto) run_inline(Fn&& fn) const {
    const auto state = current();
    return std::forward<Fn>(fn)(Pinned{state->matcher, state->meta, state->generation, nullptr,
                                       this, state->census.get(), 0});
  }

  /// eTLD+1 of `host`, or "" when the host has none (it is itself a public
  /// suffix, or is degenerate). Counts one serve.queries.
  std::string registrable_domain(std::string_view host) const;

  // --- batched queries (worker pool; one State per batch) ----------------
  //
  // Thin delegating wrappers over the canonical Pinned helpers, for callers
  // that want owning std::string/std::future types instead of wiring a
  // submit_job callback: each submit_* pins one State, calls the matching
  // Pinned helper, and copies views into owned results. No query logic
  // lives here. On acceptance the future is always eventually fulfilled
  // (shutdown drains the queue). Errors: "serve.backpressure" (queue full;
  // counted in serve.rejected), "serve.stopped" (engine shutting down).

  util::Result<std::future<std::vector<std::string>>> submit_registrable_domains(
      std::vector<std::string> hosts);
  /// Results are 0/1 flags, parallel to `pairs`.
  util::Result<std::future<std::vector<std::uint8_t>>> submit_same_site(
      std::vector<std::pair<std::string, std::string>> pairs);
  util::Result<std::future<std::vector<Match>>> submit_match(std::vector<std::string> hosts);

  // --- hot reload --------------------------------------------------------

  /// Publish `next` as the serving state. Returns the new generation.
  std::uint64_t swap(snapshot::Snapshot next);
  /// Compile `list` and swap. When meta.rule_count is 0 it is filled from
  /// the list's rule count.
  std::uint64_t reload_list(const List& list, snapshot::Metadata meta = {});
  /// Validate serialized snapshot bytes and swap on success. On any loader
  /// error the current state KEEPS SERVING and the error is returned
  /// (counted in serve.reload.failure).
  util::Result<std::uint64_t> reload_snapshot(std::span<const std::uint8_t> bytes);
  /// load_file() + the same keep-last-good contract.
  util::Result<std::uint64_t> reload_file(const std::string& path);

  /// Observer invoked (from the reloading thread, after publication, with
  /// reload serialization held — notifications are ordered and generations
  /// monotone) every time a new state is installed. The push channel: each
  /// psl::net::Server adds one to fan generation changes out to its
  /// subscribed connections, so N servers over one engine all push. Must be
  /// fast and must not call back into reload paths.
  using GenerationListener = std::function<void(std::uint64_t generation,
                                                const snapshot::Metadata& meta)>;
  /// Handle for remove_generation_listener.
  using ListenerId = std::uint64_t;
  /// Add `listener` beside any others; every later install calls each
  /// listener once, in the order they were added.
  ListenerId add_generation_listener(GenerationListener listener);
  /// Remove the listener `id` names (a no-op when it is already gone). An
  /// install that copied the listener set just before may still call it
  /// once more.
  void remove_generation_listener(ListenerId id);

  // --- multi-version store (time-travel; implemented in src/store so
  // --- psl_serve does not link psl_store — callers needing these link
  // --- psl_store, which psl_net and the tools already do) -----------------

  /// Open a psl::store file, adopt it, and serve its NEWEST version (swap;
  /// returns the new generation). Keep-last-good: on any error the current
  /// store and serving state are untouched and the error is returned
  /// (counted in serve.reload.failure). SIGHUP re-open goes through here.
  util::Result<std::uint64_t> open_store(const std::string& path);
  /// Attach an already-open store for match_at / divergence without
  /// touching the serving state: a caller that booted the engine from
  /// `view`'s newest version (psld --store) attaches it here, so that
  /// version is built once and serves as generation 1.
  void adopt_store(std::shared_ptr<const store::StoreView> view);
  /// The adopted store, or null. Snapshots materialized from it stay valid
  /// independently of the engine's serving state.
  std::shared_ptr<const store::StoreView> store_view() const;
  /// Answer `hosts` as the stored version in effect at `date` does
  /// (StoreView::match_at), WITHOUT touching the serving state — the
  /// match_at request path. Nothing is materialized or cached. Returns the
  /// version's metadata ("store.none" without a store).
  util::Result<snapshot::Metadata> match_at(util::Date date,
                                            std::span<const std::string_view> hosts,
                                            std::span<MatchView> out) const;
  /// Registrable-domain history of `host` across every stored version.
  util::Result<std::vector<store::DivergenceRange>> divergence(std::string_view host) const;

  // --- introspection ------------------------------------------------------

  /// Generation of the currently serving state (1 for the initial state,
  /// +1 per successful swap).
  std::uint64_t generation() const noexcept;
  /// Provenance of the currently serving state.
  snapshot::Metadata metadata() const;
  std::size_t queue_depth() const;
  std::size_t worker_count() const noexcept { return workers_.size(); }
  /// The current generation's census (shared with the State that owns it),
  /// or null when EngineOptions::census_factory was not set. Front-ends use
  /// this for the stats frame; ingest goes through Pinned::census so the
  /// generation attribution stays batch-granular.
  std::shared_ptr<analytics::Census> census() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_->census;
  }

 private:
  /// One immutable serving state; readers pin it via shared_ptr.
  struct State {
    CompiledMatcher matcher;
    snapshot::Metadata meta;
    std::uint64_t generation = 0;
    /// Per-worker registrable-domain caches (caches[i] is touched only by
    /// worker i — single-writer, no locks). `mutable` because cache fills
    /// are not observable state changes: the State's answers are immutable,
    /// the caches only memoize them. New State ⇒ new cold caches, which is
    /// the whole hot-swap invalidation story.
    mutable std::vector<RegDomainCache> caches;
    /// This generation's analytics census (null when analytics is off).
    /// Same doctrine as the caches: a new State gets a FRESH census, old
    /// readers drain on the old one, so no ingest record or census answer
    /// ever crosses a generation boundary. shared_ptr because the stats
    /// path hands it out beyond the State pin.
    std::shared_ptr<analytics::Census> census;
  };

  std::shared_ptr<const State> current() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_;
  }
  std::uint64_t install(snapshot::Snapshot next);
  Enqueue enqueue(std::function<void(std::size_t)> job);
  void worker_loop(std::size_t worker_index);

  mutable std::mutex state_mutex_;  ///< held only to copy/replace state_
  std::shared_ptr<const State> state_;

  mutable std::mutex store_mutex_;  ///< held only to copy/replace store_
  std::shared_ptr<const store::StoreView> store_;

  std::mutex listener_mutex_;  ///< guards listeners_ + next_listener_id_
  std::vector<std::pair<ListenerId, GenerationListener>> listeners_;
  ListenerId next_listener_id_ = 1;

  std::mutex reload_mutex_;  ///< serializes swaps so generations are monotone
  std::uint64_t next_generation_ = 0;

  /// From EngineOptions; install() calls it (under reload_mutex_) to give
  /// every new State its own census. Immutable after construction.
  std::function<std::shared_ptr<analytics::Census>(std::size_t)> census_factory_;

  mutable std::mutex mutex_;  ///< guards queue_ + stopping_
  std::condition_variable cv_;
  /// Jobs receive the index of the worker that runs them (selects the
  /// worker's cache inside the pinned State).
  std::deque<std::function<void(std::size_t)>> queue_;
  bool stopping_ = false;
  std::size_t max_queue_depth_;
  std::size_t cache_slots_ = 0;
  std::size_t configured_workers_ = 0;  ///< set before the first install()
  std::vector<std::thread> workers_;

  obs::Counter* queries_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* reload_success_ = nullptr;
  obs::Counter* reload_failure_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_evicts_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* batch_ms_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
};

}  // namespace psl::serve
