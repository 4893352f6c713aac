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
#include "psl/net/client.hpp"
#include "psl/util/date.hpp"
#include "psl/psl/compiled_matcher.hpp"
#include "psl/psl/list.hpp"
#include "psl/serve/engine.hpp"
#include "psl/serve/snapshot.hpp"

struct pslh_ctx {
  psl::List list;
  /// Arena-compiled mirror of `list`: batch entry points walk its arena
  /// (match_batch) rather than the pointer trie behind `list`.
  psl::CompiledMatcher matcher;

  explicit pslh_ctx(psl::List l) : list(std::move(l)), matcher(list) {}
};

struct pslh_engine {
  psl::serve::Engine engine;

  // Engine is pinned (workers hold `this`), so it is built in place here.
  pslh_engine(psl::snapshot::Snapshot initial, psl::serve::EngineOptions options)
      : engine(std::move(initial), options) {}
};

struct pslh_client {
  psl::net::Client client;
  pslh_push_callback_t push_callback = nullptr;
  void* push_user_data = nullptr;
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

const char* dup_string(const std::string& s) {
  if (test_alloc_should_fail()) return nullptr;
  char* out = new (std::nothrow) char[s.size() + 1];
  if (out == nullptr) return nullptr;
  std::memcpy(out, s.c_str(), s.size() + 1);
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
  return new (std::nothrow) pslh_ctx{*std::move(parsed)};
}

void pslh_free(pslh_ctx_t* ctx) { delete ctx; }

int pslh_is_public_suffix(const pslh_ctx_t* ctx, const char* domain) {
  if (ctx == nullptr || domain == nullptr) return 0;
  return ctx->list.is_public_suffix(domain) ? 1 : 0;
}

const char* pslh_unregistrable_domain(const pslh_ctx_t* ctx, const char* domain) {
  if (ctx == nullptr || domain == nullptr || domain[0] == '\0') return nullptr;
  return dup_string(ctx->list.public_suffix(domain));
}

const char* pslh_registrable_domain(const pslh_ctx_t* ctx, const char* domain) {
  if (ctx == nullptr || domain == nullptr) return nullptr;
  const auto rd = ctx->list.registrable_domain(domain);
  if (!rd) return nullptr;
  return dup_string(*rd);
}

int pslh_same_site(const pslh_ctx_t* ctx, const char* a, const char* b) {
  if (ctx == nullptr || a == nullptr || b == nullptr) return 0;
  return ctx->list.same_site(a, b) ? 1 : 0;
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
  // Each side of the pair list rides one reg_domain_batch call; the packed
  // keys re-attach to the caller's strings, so the predicate below is the
  // psl::same_site contract evaluated on 8-byte boundaries.
  std::vector<std::string_view> lhs(count), rhs(count);
  for (size_t i = 0; i < count; ++i) {
    lhs[i] = a[i];
    rhs[i] = b[i];
  }
  std::vector<psl::RegDomainKey> ka(count), kb(count);
  ctx->matcher.reg_domain_batch(lhs, ka);
  ctx->matcher.reg_domain_batch(rhs, kb);
  for (size_t i = 0; i < count; ++i) {
    const std::string_view ra = ka[i].in(lhs[i]);
    const std::string_view rb = kb[i].in(rhs[i]);
    bool same;
    if (ra.empty() || rb.empty()) {
      std::string_view sa = lhs[i];
      std::string_view sb = rhs[i];
      if (!sa.empty() && sa.back() == '.') sa.remove_suffix(1);
      if (!sb.empty() && sb.back() == '.') sb.remove_suffix(1);
      same = ra.empty() && rb.empty() && sa == sb;
    } else {
      same = ra == rb;
    }
    out[i] = same ? 1 : 0;
  }
  return PSLH_OK;
}

size_t pslh_rule_count(const pslh_ctx_t* ctx) {
  return ctx == nullptr ? 0 : ctx->list.rule_count();
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
    psl::snapshot::Metadata meta;
    meta.rule_count = ctx->list.rule_count();
    psl::snapshot::Snapshot initial{psl::CompiledMatcher(ctx->list), meta};
    return new pslh_engine(std::move(initial), options);
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

/* --- network client (psl::net::Client) ----------------------------------- */

pslh_client_t* pslh_client_connect(const char* address, unsigned short port, int timeout_ms) {
  if (address == nullptr) return nullptr;
  try {
    psl::net::ClientOptions options;
    options.connect_timeout_ms = timeout_ms > 0 ? timeout_ms : 10000;
    options.io_timeout_ms = timeout_ms > 0 ? timeout_ms : 10000;
    auto connected = psl::net::Client::connect(address, port, options);
    if (!connected) return nullptr;
    return new (std::nothrow) pslh_client{*std::move(connected)};
  } catch (...) {
    return nullptr;
  }
}

pslh_client_t* pslh_client_connect_udp(const char* address, unsigned short port,
                                       int timeout_ms) {
  if (address == nullptr) return nullptr;
  try {
    psl::net::ClientOptions options;
    options.connect_timeout_ms = timeout_ms > 0 ? timeout_ms : 10000;
    options.io_timeout_ms = timeout_ms > 0 ? timeout_ms : 10000;
    auto connected = psl::net::Client::connect_udp(address, port, options);
    if (!connected) return nullptr;
    return new (std::nothrow) pslh_client{*std::move(connected)};
  } catch (...) {
    return nullptr;
  }
}

void pslh_client_free(pslh_client_t* client) { delete client; }

int pslh_client_connected(const pslh_client_t* client) {
  return client != nullptr && client->client.connected() ? 1 : 0;
}

pslh_status pslh_client_ping(pslh_client_t* client) {
  if (client == nullptr) return PSLH_ERROR;
  try {
    return client->client.ping().ok() ? PSLH_OK : PSLH_ERROR;
  } catch (...) {
    return PSLH_ERROR;
  }
}

pslh_status pslh_client_registrable_domains(pslh_client_t* client, const char* const* hosts,
                                            size_t count, const char** out) {
  if (count == 0) return PSLH_OK;
  if (out == nullptr) return PSLH_ERROR;
  for (size_t i = 0; i < count; ++i) out[i] = nullptr;
  if (client == nullptr || hosts == nullptr) return PSLH_ERROR;
  try {
    std::vector<std::string> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (hosts[i] == nullptr) return PSLH_ERROR;
      batch.emplace_back(hosts[i]);
    }
    auto answers = client->client.registrable_domains(batch);
    if (!answers) {
      return answers.error().code == "net.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    for (size_t i = 0; i < count; ++i) {
      if ((*answers)[i].empty()) continue;  /* no eTLD+1: out[i] stays NULL */
      out[i] = dup_string((*answers)[i]);
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

pslh_status pslh_client_same_site(pslh_client_t* client, const char* const* a,
                                  const char* const* b, size_t count, int* out) {
  if (count == 0) return PSLH_OK;
  if (out == nullptr) return PSLH_ERROR;
  std::memset(out, 0, count * sizeof(int));
  if (client == nullptr || a == nullptr || b == nullptr) return PSLH_ERROR;
  try {
    std::vector<std::pair<std::string, std::string>> pairs;
    pairs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (a[i] == nullptr || b[i] == nullptr) return PSLH_ERROR;
      pairs.emplace_back(a[i], b[i]);
    }
    auto answers = client->client.same_site_batch(pairs);
    if (!answers) {
      return answers.error().code == "net.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    for (size_t i = 0; i < count; ++i) out[i] = (*answers)[i] ? 1 : 0;
    return PSLH_OK;
  } catch (...) {
    return PSLH_ERROR;
  }
}

pslh_status pslh_client_reload_snapshot(pslh_client_t* client, const unsigned char* bytes,
                                        size_t length) {
  if (client == nullptr || (bytes == nullptr && length > 0)) return PSLH_ERROR;
  try {
    return client->client.reload({bytes, length}).ok() ? PSLH_OK : PSLH_ERROR;
  } catch (...) {
    return PSLH_ERROR;
  }
}

unsigned long long pslh_client_generation(pslh_client_t* client) {
  if (client == nullptr) return 0;
  try {
    auto stats = client->client.stats();
    return stats.ok() ? stats->generation : 0;
  } catch (...) {
    return 0;
  }
}

pslh_status pslh_client_match_at(pslh_client_t* client, long long date_days,
                                 const char* const* hosts, size_t count, const char** out,
                                 long long* version_date_days_out) {
  if (version_date_days_out != nullptr) *version_date_days_out = 0;
  if (count == 0) return PSLH_OK;
  if (out == nullptr) return PSLH_ERROR;
  for (size_t i = 0; i < count; ++i) out[i] = nullptr;
  if (client == nullptr || hosts == nullptr) return PSLH_ERROR;
  if (date_days < INT32_MIN || date_days > INT32_MAX) return PSLH_ERROR;
  try {
    std::vector<std::string> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (hosts[i] == nullptr) return PSLH_ERROR;
      batch.emplace_back(hosts[i]);
    }
    auto answer =
        client->client.match_at(psl::util::Date{static_cast<std::int32_t>(date_days)}, batch);
    if (!answer) {
      return answer.error().code == "net.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    for (size_t i = 0; i < count; ++i) {
      const auto& rd = answer->matches[i].registrable_domain;
      if (rd.empty()) continue; /* no eTLD+1 under that version: out[i] stays NULL */
      out[i] = dup_string(rd);
      if (out[i] == nullptr) {
        for (size_t j = 0; j < i; ++j) {
          pslh_string_free(out[j]);
          out[j] = nullptr;
        }
        return PSLH_ERROR;
      }
    }
    if (version_date_days_out != nullptr) {
      *version_date_days_out = answer->version_date_days;
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

pslh_status pslh_client_divergence(pslh_client_t* client, const char* host,
                                   long long* first_days, long long* last_days,
                                   const char** domains, size_t max_ranges,
                                   size_t* total_out) {
  if (total_out != nullptr) *total_out = 0;
  for (size_t i = 0; i < max_ranges; ++i) {
    if (first_days != nullptr) first_days[i] = 0;
    if (last_days != nullptr) last_days[i] = 0;
    if (domains != nullptr) domains[i] = nullptr;
  }
  if (client == nullptr || host == nullptr || total_out == nullptr) return PSLH_ERROR;
  if (max_ranges > 0 &&
      (first_days == nullptr || last_days == nullptr || domains == nullptr)) {
    return PSLH_ERROR;
  }
  try {
    auto ranges = client->client.divergence(host);
    if (!ranges) {
      return ranges.error().code == "net.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    const size_t fill = ranges->size() < max_ranges ? ranges->size() : max_ranges;
    for (size_t i = 0; i < fill; ++i) {
      const auto& r = (*ranges)[i];
      first_days[i] = r.first_date_days;
      last_days[i] = r.last_date_days;
      if (r.registrable_domain.empty()) continue; /* NULL = no eTLD+1 in range */
      domains[i] = dup_string(r.registrable_domain);
      if (domains[i] == nullptr) {
        for (size_t j = 0; j < i; ++j) {
          pslh_string_free(domains[j]);
          domains[j] = nullptr;
        }
        for (size_t j = 0; j <= i && j < max_ranges; ++j) {
          first_days[j] = 0;
          last_days[j] = 0;
        }
        return PSLH_ERROR;
      }
    }
    *total_out = ranges->size();
    return PSLH_OK;
  } catch (...) {
    for (size_t i = 0; i < max_ranges; ++i) {
      if (domains != nullptr) {
        pslh_string_free(domains[i]);
        domains[i] = nullptr;
      }
      if (first_days != nullptr) first_days[i] = 0;
      if (last_days != nullptr) last_days[i] = 0;
    }
    return PSLH_ERROR;
  }
}

/* --- streaming analytics --------------------------------------------------- */

pslh_status pslh_client_ingest_batch(pslh_client_t* client, const char* const* page_hosts,
                                     const char* const* resource_hosts,
                                     const long long* timestamps_ms, size_t count,
                                     unsigned long long* generation_out) {
  if (generation_out != nullptr) *generation_out = 0;
  if (count == 0) return PSLH_OK;
  if (client == nullptr || page_hosts == nullptr || resource_hosts == nullptr) return PSLH_ERROR;
  try {
    std::vector<psl::net::WireIngestRecord> records;
    records.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (page_hosts[i] == nullptr || resource_hosts[i] == nullptr) return PSLH_ERROR;
      records.push_back(psl::net::WireIngestRecord{
          page_hosts[i], resource_hosts[i],
          timestamps_ms == nullptr ? 0 : static_cast<std::uint64_t>(timestamps_ms[i])});
    }
    auto ack = client->client.ingest_batch(records);
    if (!ack) {
      return ack.error().code == "net.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    if (generation_out != nullptr) *generation_out = ack->generation;
    return PSLH_OK;
  } catch (...) {
    return PSLH_ERROR;
  }
}

pslh_status pslh_client_census(pslh_client_t* client, unsigned int top_k, pslh_census_t* out) {
  if (out == nullptr) return PSLH_ERROR;
  std::memset(out, 0, sizeof(*out));
  if (client == nullptr) return PSLH_ERROR;
  try {
    auto census = client->client.census(static_cast<std::uint32_t>(top_k));
    if (!census) {
      return census.error().code == "net.backpressure" ? PSLH_BACKPRESSURE : PSLH_ERROR;
    }
    out->generation = census->generation;
    out->records = census->records;
    out->first_party = census->first_party;
    out->third_party = census->third_party;
    out->unique_hosts = census->unique_hosts;
    out->sites_formed = census->sites_formed;
    out->misbound_hosts = census->misbound_hosts;
    out->dropped = census->dropped;
    out->state_bytes = census->state_bytes;
    const size_t etlds = census->etlds.size();
    const size_t trackers = census->trackers.size();
    /* All arrays first (value-only, so a later dup_string failure unwinds
     * through pslh_census_free without partially-typed state). */
    if (etlds > 0) {
      out->etlds = new (std::nothrow) const char*[etlds]();
      out->etld_misbound = new (std::nothrow) unsigned long long[etlds]();
    }
    if (trackers > 0) {
      out->tracker_domains = new (std::nothrow) const char*[trackers]();
      out->tracker_requests = new (std::nothrow) unsigned long long[trackers]();
      out->tracker_requests_err = new (std::nothrow) unsigned long long[trackers]();
      out->tracker_reach = new (std::nothrow) unsigned long long[trackers]();
      out->tracker_reach_err = new (std::nothrow) unsigned long long[trackers]();
    }
    if ((etlds > 0 && (out->etlds == nullptr || out->etld_misbound == nullptr)) ||
        (trackers > 0 &&
         (out->tracker_domains == nullptr || out->tracker_requests == nullptr ||
          out->tracker_requests_err == nullptr || out->tracker_reach == nullptr ||
          out->tracker_reach_err == nullptr))) {
      pslh_census_free(out);
      return PSLH_ERROR;
    }
    out->etld_count = etlds;
    out->tracker_count = trackers;
    for (size_t i = 0; i < etlds; ++i) {
      out->etlds[i] = dup_string(census->etlds[i].etld);
      if (out->etlds[i] == nullptr) {
        pslh_census_free(out);
        return PSLH_ERROR;
      }
      out->etld_misbound[i] = census->etlds[i].misbound;
    }
    for (size_t i = 0; i < trackers; ++i) {
      const auto& row = census->trackers[i];
      out->tracker_domains[i] = dup_string(row.domain);
      if (out->tracker_domains[i] == nullptr) {
        pslh_census_free(out);
        return PSLH_ERROR;
      }
      out->tracker_requests[i] = row.requests;
      out->tracker_requests_err[i] = row.requests_err;
      out->tracker_reach[i] = row.reach;
      out->tracker_reach_err[i] = row.reach_err;
    }
    return PSLH_OK;
  } catch (...) {
    pslh_census_free(out);
    return PSLH_ERROR;
  }
}

void pslh_census_free(pslh_census_t* out) {
  if (out == nullptr) return;
  for (size_t i = 0; i < out->etld_count; ++i) pslh_string_free(out->etlds[i]);
  for (size_t i = 0; i < out->tracker_count; ++i) pslh_string_free(out->tracker_domains[i]);
  delete[] out->etlds;
  delete[] out->etld_misbound;
  delete[] out->tracker_domains;
  delete[] out->tracker_requests;
  delete[] out->tracker_requests_err;
  delete[] out->tracker_reach;
  delete[] out->tracker_reach_err;
  std::memset(out, 0, sizeof(*out));
}

/* --- the push channel ----------------------------------------------------- */

pslh_status pslh_client_subscribe(pslh_client_t* client, unsigned long long* generation_out) {
  if (generation_out != nullptr) *generation_out = 0;
  if (client == nullptr) return PSLH_ERROR;
  try {
    auto generation = client->client.subscribe();
    if (!generation) return PSLH_ERROR;
    if (generation_out != nullptr) *generation_out = *generation;
    return PSLH_OK;
  } catch (...) {
    return PSLH_ERROR;
  }
}

pslh_status pslh_client_set_push_callback(pslh_client_t* client, pslh_push_callback_t callback,
                                          void* user_data) {
  if (client == nullptr) return PSLH_ERROR;
  client->push_callback = callback;
  client->push_user_data = user_data;
  if (callback == nullptr) {
    client->client.set_push_callback(nullptr);
    return PSLH_OK;
  }
  /* The lambda reads the handle's fields at fire time, so re-registering a
   * different callback/user_data takes effect without another wire call. */
  client->client.set_push_callback([client](const psl::net::WireGenerationChanged& push) {
    if (client->push_callback != nullptr) {
      client->push_callback(push.generation, push.rule_count, push.rule_delta,
                            client->push_user_data);
    }
  });
  return PSLH_OK;
}

pslh_status pslh_client_poll_pushes(pslh_client_t* client, size_t* drained_out) {
  if (drained_out != nullptr) *drained_out = 0;
  if (client == nullptr) return PSLH_ERROR;
  try {
    auto drained = client->client.poll_pushes();
    if (!drained) return PSLH_ERROR;
    if (drained_out != nullptr) *drained_out = *drained;
    return PSLH_OK;
  } catch (...) {
    return PSLH_ERROR;
  }
}

unsigned long long pslh_client_last_pushed_generation(const pslh_client_t* client) {
  return client == nullptr ? 0 : client->client.last_pushed_generation();
}

pslh_status pslh_client_reconnect(pslh_client_t* client) {
  if (client == nullptr) return PSLH_ERROR;
  try {
    return client->client.reconnect().ok() ? PSLH_OK : PSLH_ERROR;
  } catch (...) {
    return PSLH_ERROR;
  }
}

}  // extern "C"
