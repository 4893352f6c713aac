// psl::obs — lightweight pipeline observability.
//
// The paper's headline numbers are aggregates over millions of matches and
// thousands of list versions; they are only trustworthy if every stage of
// the pipeline accounts for what it counted, skipped, and rejected. A
// MetricsRegistry holds named counters, gauges, and fixed-bucket latency
// histograms, plus a bounded buffer of structured diagnostics (the "we
// skipped line 412 because ..." records recover-mode ingestion produces).
//
// Cost model: hot paths resolve a handle (Counter&/Histogram&) once, outside
// their loops, and mutate it with relaxed atomics — no locks, no allocation.
// Name lookup takes a mutex and is for setup code only. Every instrumented
// call site in the library also accepts a null registry, which skips the
// instrumentation entirely (the RAII timers in obs/span.hpp then read no
// clock).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace psl::obs {

/// Monotone event count. Thread-safe; relaxed ordering (totals are read
/// after the producing threads join or at snapshot time).
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (thread counts, corpus sizes).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with
/// one implicit overflow bucket. Bounds are frozen at construction — no
/// rebalancing, so observe() is a branchless-ish scan + one relaxed
/// increment, safe from any thread.
class Histogram {
 public:
  /// Default bounds for latency-in-milliseconds histograms.
  static std::span<const double> default_latency_bounds_ms() noexcept;

  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double value) noexcept;

  struct Snapshot {
    std::vector<double> bounds;       ///< finite upper bounds (ascending)
    std::vector<std::int64_t> counts; ///< bounds.size() + 1 (last = overflow)
    std::int64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  Snapshot snapshot() const;

  std::int64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One structured skip/reject record: what went wrong, where.
struct Diagnostic {
  std::string code;    ///< stable identifier, e.g. "csv.bad-row"
  std::size_t line = 0;///< 1-based source line (0 when not line-addressed)
  std::string detail;  ///< free-form context

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// One completed trace span (see obs/span.hpp). start_ms is relative to the
/// registry's construction instant, so spans from all threads share a
/// timeline.
struct SpanRecord {
  std::string name;
  std::string parent;  ///< empty for root spans
  double start_ms = 0.0;
  double dur_ms = 0.0;
  std::uint32_t depth = 0;
};

/// Named-instrument registry. Instruments are created on first use and live
/// as long as the registry; returned references remain valid across later
/// registrations (node-based storage).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t diagnostic_capacity = 4096,
                           std::size_t span_capacity = 4096);

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First registration fixes the bounds; later lookups ignore `bounds`.
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = Histogram::default_latency_bounds_ms());

  /// Append a diagnostic. Beyond the capacity, records are dropped and
  /// counted (diagnostics_dropped) instead of growing without bound.
  void diagnose(Diagnostic d);
  std::vector<Diagnostic> diagnostics() const;
  std::size_t diagnostics_dropped() const noexcept {
    return dropped_diagnostics_.load(std::memory_order_relaxed);
  }

  void record_span(SpanRecord r);
  std::vector<SpanRecord> spans() const;
  std::size_t spans_dropped() const noexcept {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// Milliseconds since the registry was constructed (the span timeline).
  double now_ms() const noexcept;

  // Snapshot accessors (copy names + current values; for writers/tests).
  std::vector<std::pair<std::string, std::int64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms() const;

 private:
  mutable std::mutex mutex_;
  // std::map: stable node addresses, deterministic (sorted) snapshots.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<Diagnostic> diagnostics_;
  std::vector<SpanRecord> spans_;
  std::size_t diagnostic_capacity_;
  std::size_t span_capacity_;
  std::atomic<std::size_t> dropped_diagnostics_{0};
  std::atomic<std::size_t> dropped_spans_{0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace psl::obs
