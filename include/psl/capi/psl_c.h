/* C API for the PSL engine, shaped after libpsl so existing callers can
 * switch with a search-and-replace. All functions are thread-safe for
 * concurrent use of one psl_ctx_t after it is built (lookups are const);
 * building/freeing must not race with lookups on the same context.
 *
 *   psl_ctx_t* psl = pslh_builtin();
 *   int is = pslh_is_public_suffix(psl, "co.uk");              // 1
 *   const char* rd = pslh_registrable_domain(psl, "a.b.co.uk");// "b.co.uk"
 *   pslh_string_free(rd);
 *
 * OWNERSHIP CONTRACT
 * ------------------
 * Every `const char*` RETURNED by this API is a fresh heap allocation owned
 * by the CALLER; release each exactly once with pslh_string_free (never
 * free()/delete — the allocator may differ across the library boundary).
 * NULL is always a valid argument to pslh_string_free. Strings PASSED IN
 * remain owned by the caller; the library copies what it needs before
 * returning. Handles (pslh_ctx_t*, pslh_engine_t*) are owned by the caller
 * and released with their matching *_free — except pslh_builtin()'s
 * context, which the library owns.
 *
 * The "pslh_" prefix ("PSL harms") avoids colliding with a real libpsl in
 * the same process.
 */
#ifndef PSL_CAPI_PSL_C_H_
#define PSL_CAPI_PSL_C_H_

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

/* STATUS CONVENTION
 * -----------------
 * Every fallible call in this API returns pslh_status. The numeric values
 * are frozen (they predate the enum, so older callers comparing against
 * 1/0/-1 keep working):
 *
 *   PSLH_OK            (1)  success — all documented outputs are filled;
 *                           batch answers come from ONE list generation.
 *   PSLH_ERROR         (0)  bad arguments, allocation failure or a rejected
 *                           list — no live strings are left in any output
 *                           array (all-NULL / zero-filled).
 *   PSLH_BACKPRESSURE (-1)  the serving queue rejected the batch; NOTHING
 *                           was computed — retry later or shed load.
 *
 * Predicates (pslh_is_public_suffix, pslh_same_site) return plain int 1/0
 * — they answer a question, not report an outcome — and getters (generation counters, rule counts) return their value with a
 * documented NULL-safe fallback. */
typedef enum pslh_status {
  PSLH_BACKPRESSURE = -1,
  PSLH_ERROR = 0,
  PSLH_OK = 1
} pslh_status;

typedef struct pslh_ctx pslh_ctx_t;

/* The built-in list: the newest snapshot of the synthetic 2007-2022
 * history (9,368 rules). Never returns NULL. The returned context is owned
 * by the library; do NOT free it. */
const pslh_ctx_t* pslh_builtin(void);

/* Load a list from a file in the published format. Returns NULL on parse
 * errors. Free with pslh_free. */
pslh_ctx_t* pslh_load_from_data(const char* data, size_t length);

void pslh_free(pslh_ctx_t* ctx);

/* 1 if `domain` is a public suffix under `ctx`, else 0. NULL-safe (0). */
int pslh_is_public_suffix(const pslh_ctx_t* ctx, const char* domain);

/* The public suffix (eTLD) of `domain` as a fresh caller-owned string, or
 * NULL on invalid input or allocation failure. Free with pslh_string_free. */
const char* pslh_unregistrable_domain(const pslh_ctx_t* ctx, const char* domain);

/* The registrable domain (eTLD+1) as a fresh caller-owned string, or NULL
 * when `domain` is itself a public suffix, invalid, or on allocation
 * failure. Free with pslh_string_free. */
const char* pslh_registrable_domain(const pslh_ctx_t* ctx, const char* domain);

/* 1 if the two hostnames belong to the same site, else 0. */
int pslh_same_site(const pslh_ctx_t* ctx, const char* a, const char* b);

/* Batch variant: out[i] = pslh_same_site(ctx, a[i], b[i]) for i < count.
 * PSLH_ERROR when ctx/a/b/out is NULL (with count > 0) or any a[i]/b[i] is
 * NULL — `out` is zero-filled in that case if writable. count == 0 succeeds
 * trivially. Never backpressures (no queue involved). */
pslh_status pslh_same_site_batch(const pslh_ctx_t* ctx, const char* const* a,
                                 const char* const* b, size_t count, int* out);

/* Number of rules in the context's list. */
size_t pslh_rule_count(const pslh_ctx_t* ctx);

/* Release a string returned by this API. NULL is a no-op. */
void pslh_string_free(const char* s);

/* Legacy alias of pslh_string_free (kept for existing callers). */
void pslh_free_string(const char* s);

/* ---------------------------------------------------------------------------
 * Serving engine (psl::serve): an RCU hot-swappable query service over a
 * compiled matcher. Batched lookups run on a worker pool behind a bounded
 * queue; reloads are keep-last-good (a failed reload leaves the previous
 * list serving). All pslh_engine_* functions are thread-safe on one engine,
 * except pslh_engine_free, which must not race with anything else.
 *
 * Batch calls return pslh_status (see the convention block above);
 * PSLH_BACKPRESSURE means the bounded queue was full and nothing ran. */

typedef struct pslh_engine pslh_engine_t;

/* Start a serving engine over a copy of `ctx`'s compiled list. `ctx` may
 * be freed afterwards. threads == 0 means 1; max_queue_depth == 0 means 64.
 * Returns NULL when ctx is NULL or on allocation failure. Free with
 * pslh_engine_free (blocks until in-flight batches drain). */
pslh_engine_t* pslh_engine_new(const pslh_ctx_t* ctx, size_t threads, size_t max_queue_depth);

void pslh_engine_free(pslh_engine_t* engine);

/* Generation of the serving state: 1 for the initial list, +1 per
 * successful reload. 0 when `engine` is NULL. */
unsigned long long pslh_engine_generation(const pslh_engine_t* engine);

/* Parse a list from `data` and hot-swap it in. PSLH_ERROR on NULL arguments
 * or parse failure (the previous list keeps serving). */
pslh_status pslh_engine_reload_list(pslh_engine_t* engine, const char* data, size_t length);

/* Validate serialized snapshot bytes (psl::snapshot format) and hot-swap.
 * PSLH_ERROR on NULL arguments or validation failure (the previous state
 * keeps serving). */
pslh_status pslh_engine_reload_snapshot(pslh_engine_t* engine, const unsigned char* bytes,
                                        size_t length);

/* Batched eTLD+1: out[i] receives a fresh caller-owned string, or NULL when
 * hosts[i] has no registrable domain. Free each non-NULL out[i] with
 * pslh_string_free. On PSLH_ERROR / PSLH_BACKPRESSURE out is all-NULL. */
pslh_status pslh_engine_registrable_domains(pslh_engine_t* engine, const char* const* hosts,
                                            size_t count, const char** out);

/* Batched same-site over pairs (a[i], b[i]): out[i] = 1 or 0. */
pslh_status pslh_engine_same_site(pslh_engine_t* engine, const char* const* a,
                                  const char* const* b, size_t count, int* out);

/* TESTING ONLY: make the next `count` internal string allocations fail, so
 * allocation-failure paths can be exercised deterministically. 0 disables.
 * Not for production use; affects the whole process. */
void pslh_test_fail_next_allocs(int count);

#ifdef __cplusplus
}
#endif

#endif /* PSL_CAPI_PSL_C_H_ */
