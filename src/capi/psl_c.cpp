#include "psl/capi/psl_c.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psl/history/timeline.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/psl/match.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"

/// One compiled list: every pslh_* lookup walks this arena, and an engine
/// starts from a copy of it.
struct pslh_ctx {
  psl::snapshot::Snapshot snapshot;

  explicit pslh_ctx(const psl::List& list)
      : snapshot{psl::CompiledMatcher(list),
                 psl::snapshot::Metadata{psl::util::Date(0), list.rule_count()}} {}
};

struct pslh_engine {
  psl::serve::Engine engine;

  // Engine is pinned (workers hold `this`), so it is built in place here.
  pslh_engine(psl::snapshot::Snapshot initial, psl::serve::EngineOptions options)
      : engine(std::move(initial), options) {}
};

namespace {

/// Countdown armed by pslh_test_fail_next_allocs: while positive, each
/// dup_string decrements it and reports allocation failure.
std::atomic<int> g_fail_allocs{0};

bool test_alloc_should_fail() {
  int current = g_fail_allocs.load(std::memory_order_relaxed);
  while (current > 0) {
    if (g_fail_allocs.compare_exchange_weak(current, current - 1,
                                            std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

const char* dup_string(std::string_view s) {
  if (test_alloc_should_fail()) return nullptr;
  char* out = new (std::nothrow) char[s.size() + 1];
  if (out == nullptr) return nullptr;
  s.copy(out, s.size());  // a degenerate host's empty view has no data()
  out[s.size()] = '\0';
  return out;
}

}  // namespace

extern "C" {

const pslh_ctx_t* pslh_builtin(void) {
  static const pslh_ctx ctx = [] {
    const auto history = psl::history::generate_history(psl::history::TimelineSpec{});
    return pslh_ctx{history.snapshot(history.version_count() - 1)};
  }();
  return &ctx;
}

pslh_ctx_t* pslh_load_from_data(const char* data, size_t length) {
  if (data == nullptr) return nullptr;
  auto parsed = psl::List::parse(std::string_view(data, length));
  if (!parsed) return nullptr;
  return new (std::nothrow) pslh_ctx{*parsed};
}

void pslh_free(pslh_ctx_t* ctx) { delete ctx; }

int pslh_is_public_suffix(const pslh_ctx_t* ctx, const char* domain) {
  if (ctx == nullptr || domain == nullptr) return 0;
  return psl::is_public_suffix(ctx->snapshot.matcher, domain) ? 1 : 0;
}

const char* pslh_unregistrable_domain(const pslh_ctx_t* ctx, const char* domain) {
  if (ctx == nullptr || domain == nullptr || domain[0] == '\0') return nullptr;
  return dup_string(ctx->snapshot.matcher.match_view(domain).public_suffix);
}

const char* pslh_registrable_domain(const pslh_ctx_t* ctx, const char* domain) {
  if (ctx == nullptr || domain == nullptr) return nullptr;
  const std::string_view rd = ctx->snapshot.matcher.match_view(domain).registrable_domain;
  if (rd.empty()) return nullptr;
  return dup_string(rd);
}

int pslh_same_site(const pslh_ctx_t* ctx, const char* a, const char* b) {
  if (ctx == nullptr || a == nullptr || b == nullptr) return 0;
  return psl::same_site(ctx->snapshot.matcher, a, b) ? 1 : 0;
}

pslh_status pslh_same_site_batch(const pslh_ctx_t* ctx, const char* const* a,
                                 const char* const* b, size_t count, int* out) {
  if (count == 0) return PSLH_OK;
  if (out == nullptr) return PSLH_ERROR;
  std::memset(out, 0, count * sizeof(int));
  if (ctx == nullptr || a == nullptr || b == nullptr) return PSLH_ERROR;
  for (size_t i = 0; i < count; ++i) {
    if (a[i] == nullptr || b[i] == nullptr) return PSLH_ERROR;
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = psl::same_site(ctx->snapshot.matcher, a[i], b[i]) ? 1 : 0;
  }
  return PSLH_OK;
}

size_t pslh_rule_count(const pslh_ctx_t* ctx) {
  return ctx == nullptr ? 0 : ctx->snapshot.meta.rule_count;
}

void pslh_string_free(const char* s) { delete[] s; }

void pslh_free_string(const char* s) { pslh_string_free(s); }

void pslh_test_fail_next_allocs(int count) {
  g_fail_allocs.store(count > 0 ? count : 0, std::memory_order_relaxed);
}

/* --- serving engine ------------------------------------------------------ */

pslh_engine_t* pslh_engine_new(const pslh_ctx_t* ctx, size_t threads, size_t max_queue_depth) {
  if (ctx == nullptr) return nullptr;
  try {
    psl::serve::EngineOptions options;
    options.threads = threads == 0 ? 1 : threads;
    options.max_queue_depth = max_queue_depth == 0 ? 64 : max_queue_depth;
    return new pslh_engine(ctx->snapshot, options);
  } catch (...) {
    return nullptr;
  }
}

void pslh_engine_free(pslh_engine_t* engine) { delete engine; }

unsigned long long pslh_engine_generation(const pslh_engine_t* engine) {
  return engine == nullptr ? 0 : engine->engine.generation();
}

pslh_status pslh_engine_reload_list(pslh_engine_t* engine, const char* data, size_t length) {
  if (engine == nullptr || data == nullptr) return PSLH_ERROR;
  try {
    auto parsed = psl::List::parse(std::string_view(data, length));
    if (!parsed) return PSLH_ERROR;
    engine->engine.reload_list(*parsed);
    return PSLH_OK;
  } catch (...) {
    return PSLH_ERROR;
  }
}

pslh_status pslh_engine_reload_snapshot(pslh_engine_t* engine, const unsigned char* bytes,
                                        size_t length) {
  if (engine == nullptr || bytes == nullptr) return PSLH_ERROR;
  try {
    return engine->engine.reload_snapshot({bytes, length}).ok() ? PSLH_OK : PSLH_ERROR;
  } catch (...) {
    return PSLH_ERROR;
  }
}

pslh_status pslh_engine_registrable_domains(pslh_engine_t* engine, const char* const* hosts,
                                            size_t count, const char** out) {
  if (count == 0) return PSLH_OK;
  if (out == nullptr) return PSLH_ERROR;
  for (size_t i = 0; i < count; ++i) out[i] = nullptr;
  if (engine == nullptr || hosts == nullptr) return PSLH_ERROR;
  try {
    std::vector<std::string> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (hosts[i] == nullptr) return PSLH_ERROR;
      batch.emplace_back(hosts[i]);
    }
    auto submitted = engine->engine.submit_registrable_domains(std::move(batch));
    if (!submitted) {
      return submitted.error().code == "serve.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    const std::vector<std::string> answers = submitted->get();
    for (size_t i = 0; i < count; ++i) {
      if (answers[i].empty()) continue;  // no eTLD+1: out[i] stays NULL
      out[i] = dup_string(answers[i]);
      if (out[i] == nullptr) {
        for (size_t j = 0; j < i; ++j) {
          pslh_string_free(out[j]);
          out[j] = nullptr;
        }
        return PSLH_ERROR;
      }
    }
    return PSLH_OK;
  } catch (...) {
    for (size_t i = 0; i < count; ++i) {
      pslh_string_free(out[i]);
      out[i] = nullptr;
    }
    return PSLH_ERROR;
  }
}

pslh_status pslh_engine_same_site(pslh_engine_t* engine, const char* const* a,
                                  const char* const* b, size_t count, int* out) {
  if (count == 0) return PSLH_OK;
  if (out == nullptr) return PSLH_ERROR;
  std::memset(out, 0, count * sizeof(int));
  if (engine == nullptr || a == nullptr || b == nullptr) return PSLH_ERROR;
  try {
    std::vector<std::pair<std::string, std::string>> pairs;
    pairs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (a[i] == nullptr || b[i] == nullptr) return PSLH_ERROR;
      pairs.emplace_back(a[i], b[i]);
    }
    auto submitted = engine->engine.submit_same_site(std::move(pairs));
    if (!submitted) {
      return submitted.error().code == "serve.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    const std::vector<std::uint8_t> answers = submitted->get();
    for (size_t i = 0; i < count; ++i) out[i] = answers[i] ? 1 : 0;
    return PSLH_OK;
  } catch (...) {
    return PSLH_ERROR;
  }
}

}  // extern "C"
