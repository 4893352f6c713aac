// RAII trace spans and timers over a MetricsRegistry.
//
// A ScopedSpan measures the wall time between its construction and
// destruction, records the duration into the histogram named after the span
// ("<name>_ms"), and appends a SpanRecord carrying parent/child nesting (a
// thread-local stack of open spans provides the parent). A Timer is the
// cheaper cousin: it only feeds a pre-resolved histogram handle — no name
// lookup, no trace record — and is what per-version hot loops use.
//
// Both are no-ops when handed a null registry/histogram (no clock read).
#pragma once

#include <chrono>
#include <string>
#include <string_view>

#include "psl/obs/metrics.hpp"

namespace psl::obs {

class Timer {
 public:
  /// Starts timing unless `sink` is null. Destruction observes the elapsed
  /// wall time, in milliseconds, into the sink.
  explicit Timer(Histogram* sink) noexcept
      : sink_(sink), start_(sink ? Clock::now() : Clock::time_point{}) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    if (sink_) sink_->observe(elapsed_ms());
  }

  double elapsed_ms() const noexcept {
    if (!sink_) return 0.0;
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* sink_;
  Clock::time_point start_;
};

class ScopedSpan {
 public:
  ScopedSpan(MetricsRegistry* registry, std::string_view name);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  double elapsed_ms() const noexcept;

 private:
  MetricsRegistry* registry_;
  std::string name_;
  double start_ms_ = 0.0;
  std::uint32_t depth_ = 0;
  ScopedSpan* parent_ = nullptr;
};

}  // namespace psl::obs
