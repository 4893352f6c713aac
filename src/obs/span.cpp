#include "psl/obs/span.hpp"

namespace psl::obs {

namespace {

// Innermost open span on this thread — the parent of any span opened next.
// Spans are strictly scoped (RAII), so a plain intrusive stack suffices.
thread_local ScopedSpan* t_current_span = nullptr;

}  // namespace

ScopedSpan::ScopedSpan(MetricsRegistry* registry, std::string_view name)
    : registry_(registry) {
  if (!registry_) return;
  name_ = std::string(name);
  parent_ = t_current_span;
  depth_ = parent_ ? parent_->depth_ + 1 : 0;
  start_ms_ = registry_->now_ms();
  t_current_span = this;
}

ScopedSpan::~ScopedSpan() {
  if (!registry_) return;
  const double dur = registry_->now_ms() - start_ms_;
  SpanRecord record;
  record.name = name_;
  record.parent = parent_ ? parent_->name_ : std::string();
  record.start_ms = start_ms_;
  record.dur_ms = dur;
  record.depth = depth_;
  registry_->histogram(name_ + "_ms").observe(dur);
  registry_->record_span(std::move(record));
  t_current_span = parent_;
}

double ScopedSpan::elapsed_ms() const noexcept {
  if (!registry_) return 0.0;
  return registry_->now_ms() - start_ms_;
}

}  // namespace psl::obs
