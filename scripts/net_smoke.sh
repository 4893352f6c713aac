#!/usr/bin/env bash
# Loopback end-to-end smoke for psld: compile a snapshot, serve it, query it
# over the PSLN wire protocol, hot-reload via SIGHUP (answers must flip,
# keep-last-good must hold for a corrupt file) and via a wire-level
# `psld reload`, prove the push channel (a subscribed `psld watch` is told
# about a SIGHUP reload without issuing a single query), truncate and then
# overwrite the served file in place (answers hold, the reload is refused
# keep-last-good), then drain via SIGTERM and require a clean exit 0. A
# second act covers the multi-version store: psltool store build from two
# dated lists, psld --store booting at generation 1, match-at answers
# flipping across the version boundary, divergence ranges, a truncated
# served store refused at reload, a corrupted store and a format-1 store
# rejected at boot, and the handlers-before-listener fix (SIGTERM during
# startup still drains cleanly). A third act covers streaming analytics:
# psld --analytics, a psltool-generated corpus replayed into the census,
# aggregates read back over the wire, and a SIGHUP hot swap starting a fresh
# census for the new generation while ingest keeps flowing. A fourth act
# covers --shards: psld --shards 2 --udp runs two event loops in one process
# on one SO_REUSEPORT port over one engine; after a wire reload and after a
# SIGHUP, ten fresh TCP and UDP queries all get the new answer and stats
# reads one generation; psld --shards 2 --store answers match-at; both
# drain to a clean exit 0.
#
# Every daemon listens on 127.0.0.1:0 — the kernel picks a free ephemeral
# port, the banner names it, and the script greps it back out; nothing here
# can collide with another test's port again. New snapshots are published by
# rename (tmp + mv), the durable way; psld reads files into memory it owns,
# so the in-place writes above are survivable mistakes, not the method.
# CI runs this against the freshly built tree, and ctest runs it as
# PsldLoopbackSmoke:
#
#   scripts/net_smoke.sh build/examples/psld [build/examples/psltool]
set -euo pipefail

PSLD=${1:-build/examples/psld}
if [[ ! -x "$PSLD" ]]; then
  echo "net_smoke: psld binary not found at $PSLD" >&2
  exit 2
fi
PSLD=$(readlink -f "$PSLD")
PSLTOOL=${2:-$(dirname "$PSLD")/psltool}
if [[ ! -x "$PSLTOOL" ]]; then
  echo "net_smoke: psltool binary not found at $PSLTOOL" >&2
  exit 2
fi
PSLTOOL=$(readlink -f "$PSLTOOL")

WORK=$(mktemp -d)
DAEMON_PID=
STORE_PID=
WATCH_PID=
trap 'kill "$DAEMON_PID" "$STORE_PID" "$WATCH_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

# Every daemon's stdout (.log) and stderr (.err), each line tagged with its
# file, so a failure explains itself.
dump_logs() {
  local f
  for f in psld psld_store psld_analytics psld_shards; do
    [[ -f $f.log ]] && sed "s/^/net_smoke: $f.log| /" "$f.log" >&2
    [[ -f $f.err ]] && sed "s/^/net_smoke: $f.err| /" "$f.err" >&2
  done
  return 0
}

fail() {
  echo "net_smoke: FAIL: $*" >&2
  dump_logs
  exit 1
}

# Under set -e an unguarded failing command would end the script silently;
# name the line and the command instead, then dump the logs.
set -E
trap 'status=$?; trap - ERR; fail "line $LINENO exited $status: $BASH_COMMAND"' ERR

# Daemons bind 127.0.0.1:0 and the kernel's pick is announced in the
# "serving generation ... on 127.0.0.1:PORT" banner; fish it back out.
bound_port() {
  sed -n 's/.*serving generation .* on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1" | head -1
}

# --- compile two list vintages -------------------------------------------
printf 'com\nuk\nco.uk\ngithub.io\n' > list_a.txt
printf 'com\nuk\nco.uk\ngithub.io\nmyshopify.com\n' > list_b.txt
"$PSLD" compile list_a.txt a.psnap
"$PSLD" compile list_b.txt b.psnap

# --- boot the daemon on an ephemeral port the kernel picks ----------------
cp a.psnap live.psnap
"$PSLD" --listen 127.0.0.1:0 --snapshot live.psnap --threads 2 > psld.log 2> psld.err &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  grep -q "serving generation" psld.log 2>/dev/null && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
grep -q "serving generation 1" psld.log || fail "daemon did not report generation 1"
PORT=$(bound_port psld.log)
[[ -n "$PORT" && "$PORT" -gt 0 ]] || fail "could not read bound port from the banner"
ADDR="127.0.0.1:$PORT"

# --- liveness + queries under the first vintage --------------------------
"$PSLD" ping "$ADDR" | grep -qx "pong" || fail "ping"
"$PSLD" query "$ADDR" shop1.myshopify.com a.b.co.uk user.github.io > q1.txt
grep -qx "shop1.myshopify.com myshopify.com" q1.txt \
  || fail "expected myshopify.com registrable under list_a, got: $(cat q1.txt)"
grep -qx "a.b.co.uk b.co.uk" q1.txt || fail "co.uk query: $(cat q1.txt)"
grep -qx "user.github.io user.github.io" q1.txt || fail "github.io query: $(cat q1.txt)"
"$PSLD" stats "$ADDR" | grep -q "generation 1, 4 rules" || fail "stats before reload"

# --- SIGHUP hot reload: the answer must flip -----------------------------
# Publish by rename: a reload never sees a half-written file.
cp b.psnap stage.psnap && mv stage.psnap live.psnap
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q "generation 2" psld.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reloaded .* generation 2" psld.log || fail "SIGHUP reload did not land"
"$PSLD" query "$ADDR" shop1.myshopify.com > q2.txt
grep -qx "shop1.myshopify.com shop1.myshopify.com" q2.txt \
  || fail "reload did not flip the myshopify answer: $(cat q2.txt)"
"$PSLD" stats "$ADDR" | grep -q "generation 2, 5 rules" || fail "stats after reload"

# --- keep-last-good: a corrupt snapshot must be rejected, serving intact --
printf 'not a snapshot' > stage.psnap && mv stage.psnap live.psnap
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q "reload rejected" psld.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reload rejected .*, still serving generation 2" psld.log \
  || fail "corrupt reload was not rejected keep-last-good"
"$PSLD" query "$ADDR" shop1.myshopify.com | grep -qx "shop1.myshopify.com shop1.myshopify.com" \
  || fail "serving disturbed after rejected reload"

# --- wire reload: push a snapshot over the PSLN protocol -----------------
"$PSLD" reload "$ADDR" a.psnap | grep -q "generation 3" || fail "wire reload"
"$PSLD" query "$ADDR" shop1.myshopify.com | grep -qx "shop1.myshopify.com myshopify.com" \
  || fail "wire reload did not flip the answer back: $("$PSLD" query "$ADDR" shop1.myshopify.com)"
"$PSLD" stats "$ADDR" | grep -q "generation 3, 4 rules" || fail "stats after wire reload"

# --- push channel: a subscriber is TOLD about reloads, no polling --------
# `psld watch N` subscribes and then only drains pushes — it never sends a
# query frame after the subscribe handshake, so the "pushed generation" line
# can only come from a server-initiated generation_changed push.
"$PSLD" watch "$ADDR" 1 > watch.log 2> watch.err &
WATCH_PID=$!
for _ in $(seq 1 100); do
  grep -q "watching from generation 3" watch.log 2>/dev/null && break
  kill -0 "$WATCH_PID" 2>/dev/null || fail "watcher died during subscribe: $(cat watch.err)"
  sleep 0.1
done
grep -q "watching from generation 3" watch.log || fail "watcher did not subscribe"

cp b.psnap stage.psnap && mv stage.psnap live.psnap
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q "pushed generation 4" watch.log 2>/dev/null && break
  sleep 0.1
done
grep -qx "psld: pushed generation 4 (5 rules, delta +1)" watch.log \
  || fail "push notification missing or wrong: $(cat watch.log)"
STATUS=0
wait "$WATCH_PID" || STATUS=$?  # count=1: exits 0 after that one push
[[ "$STATUS" -eq 0 ]] || fail "watcher exited $STATUS"
WATCH_PID=

# --- in-place writes: the daemon serves bytes it owns --------------------
# Truncate the served file, then overwrite it in place at its old size with
# bytes that are not a snapshot. Neither write may change an answer or take
# the daemon down, and a SIGHUP after each is refused keep-last-good.
SERVED_SIZE=$(stat -c %s live.psnap)
: > live.psnap
"$PSLD" query "$ADDR" shop1.myshopify.com | grep -qx "shop1.myshopify.com shop1.myshopify.com" \
  || fail "truncating the served file disturbed serving"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q "reload rejected (snapshot.truncated)" psld.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reload rejected (snapshot.truncated), still serving generation 4" psld.log \
  || fail "reload of the truncated file was not rejected keep-last-good"
head -c "$SERVED_SIZE" /dev/zero | tr '\0' 'x' \
  | dd of=live.psnap conv=notrunc status=none
[[ $(stat -c %s live.psnap) -eq "$SERVED_SIZE" ]] || fail "in-place overwrite changed the size"
"$PSLD" query "$ADDR" shop1.myshopify.com | grep -qx "shop1.myshopify.com shop1.myshopify.com" \
  || fail "overwriting the served file in place disturbed serving"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q "reload rejected (snapshot.bad-magic)" psld.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reload rejected (snapshot.bad-magic), still serving generation 4" psld.log \
  || fail "reload of the overwritten file was not rejected keep-last-good"
"$PSLD" stats "$ADDR" | grep -q "generation 4, 5 rules" || fail "stats after in-place writes"

# --- SIGTERM: graceful drain, exit 0 -------------------------------------
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
[[ "$STATUS" -eq 0 ]] || fail "daemon exited $STATUS on SIGTERM"
grep -q "psld: bye" psld.log || fail "daemon did not drain cleanly"
grep -q '"net.accepted"' psld.err || fail "metrics dump missing from stderr"

# ==========================================================================
# Act 2: the multi-version store. Build one store from the two dated list
# vintages, serve it with --store, and drive the time-travel frames.
# ==========================================================================
"$PSLTOOL" store build hist.pstore \
  --list 2020-01-01:list_a.txt --list 2021-01-01:list_b.txt > store_build.txt \
  || fail "psltool store build"
grep -q "2 versions" store_build.txt || fail "store build report: $(cat store_build.txt)"
"$PSLTOOL" store stat hist.pstore | grep -q "versions:  2" || fail "store stat"

cp hist.pstore served.pstore
"$PSLD" --listen 127.0.0.1:0 --store served.pstore --threads 2 \
  > psld_store.log 2> psld_store.err &
STORE_PID=$!
for _ in $(seq 1 100); do
  grep -q "serving generation" psld_store.log 2>/dev/null && break
  kill -0 "$STORE_PID" 2>/dev/null || fail "store daemon died during startup"
  sleep 0.1
done
grep -q "\[store\]" psld_store.log || fail "store daemon did not report store mode"
# The newest version is built once and serves as the first generation.
grep -q "serving generation 1 " psld_store.log \
  || fail "store daemon did not boot at generation 1: $(cat psld_store.log)"
STORE_PORT=$(bound_port psld_store.log)
[[ -n "$STORE_PORT" ]] || fail "could not read the store daemon's bound port"
STORE_ADDR="127.0.0.1:$STORE_PORT"

# match-at answers must flip across the 2021-01-01 version boundary.
"$PSLD" match-at "$STORE_ADDR" 2020-06-01 shop1.myshopify.com > ma1.txt
grep -q "version 2020-01-01" ma1.txt || fail "match-at resolved wrong version: $(cat ma1.txt)"
grep -qx "shop1.myshopify.com myshopify.com" ma1.txt \
  || fail "match-at under the old vintage: $(cat ma1.txt)"
"$PSLD" match-at "$STORE_ADDR" 2021-06-01 shop1.myshopify.com > ma2.txt
grep -q "version 2021-01-01" ma2.txt || fail "match-at resolved wrong version: $(cat ma2.txt)"
grep -qx "shop1.myshopify.com shop1.myshopify.com" ma2.txt \
  || fail "match-at did not flip past the boundary: $(cat ma2.txt)"
# A date before the first stored version is a clean wire-level error.
"$PSLD" match-at "$STORE_ADDR" 2019-01-01 a.com 2>/dev/null \
  && fail "match-at before the first version should fail" || true

# divergence: exactly the two ranges, oldest first.
"$PSLD" divergence "$STORE_ADDR" shop1.myshopify.com > div.txt
grep -qx "2020-01-01..2020-01-01 myshopify.com" div.txt \
  || fail "divergence first range: $(cat div.txt)"
grep -qx "2021-01-01..2021-01-01 shop1.myshopify.com" div.txt \
  || fail "divergence second range: $(cat div.txt)"
[[ $(wc -l < div.txt) -eq 2 ]] || fail "divergence range count: $(cat div.txt)"

# The plain current-generation path still serves the newest version.
"$PSLD" query "$STORE_ADDR" shop1.myshopify.com \
  | grep -qx "shop1.myshopify.com shop1.myshopify.com" || fail "store daemon query"

# Truncating the served store changes no answer; its reload is refused.
: > served.pstore
"$PSLD" match-at "$STORE_ADDR" 2020-06-01 shop1.myshopify.com \
  | grep -qx "shop1.myshopify.com myshopify.com" || fail "match-at after truncating the store"
"$PSLD" divergence "$STORE_ADDR" shop1.myshopify.com | cmp -s - div.txt \
  || fail "divergence changed after truncating the store"
kill -HUP "$STORE_PID"
for _ in $(seq 1 100); do
  grep -q "reload rejected" psld_store.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reload rejected (store.truncated), still serving generation 1" psld_store.log \
  || fail "reload of the truncated store was not rejected keep-last-good"

kill -TERM "$STORE_PID"
STATUS=0
wait "$STORE_PID" || STATUS=$?
[[ "$STATUS" -eq 0 ]] || fail "store daemon exited $STATUS on SIGTERM"
grep -q "psld: bye" psld_store.log || fail "store daemon did not drain cleanly"
STORE_PID=

# A corrupted store (one flipped byte mid-file) must be rejected at boot.
cp hist.pstore corrupt.pstore
SIZE=$(stat -c %s corrupt.pstore)
printf '\xff' | dd of=corrupt.pstore bs=1 seek=$(( SIZE / 2 )) conv=notrunc status=none
if "$PSLD" --listen 127.0.0.1:0 --store corrupt.pstore > corrupt.log 2>&1; then
  fail "corrupt store was accepted"
fi
grep -q "store" corrupt.log || fail "corrupt store rejection message: $(cat corrupt.log)"
# A store in an older file format (its format-version field set back to 1)
# is refused at boot with a hint to rebuild it.
cp hist.pstore v1.pstore
printf '\x01' | dd of=v1.pstore bs=1 seek=8 conv=notrunc status=none
if "$PSLD" --listen 127.0.0.1:0 --store v1.pstore > v1.log 2>&1; then
  fail "format-1 store was accepted"
fi
grep -q "store.bad-version" v1.log && grep -q "rebuild" v1.log \
  || fail "format-1 store rejection message: $(cat v1.log)"

# Handlers-before-listener: SIGTERM inside the widened startup window must
# still be caught and drain cleanly (the old ordering died with the default
# disposition here).
PSLD_STARTUP_DELAY_MS=500 "$PSLD" --listen 127.0.0.1:0 --store hist.pstore \
  > early.log 2>/dev/null &
STORE_PID=$!
sleep 0.1
kill -TERM "$STORE_PID"
STATUS=0
wait "$STORE_PID" || STATUS=$?
[[ "$STATUS" -eq 0 ]] || fail "early SIGTERM killed the daemon (exit $STATUS)"
grep -q "psld: bye" early.log || fail "early SIGTERM did not drain cleanly"
STORE_PID=

# ==========================================================================
# Act 3: streaming analytics. Serve with --analytics, replay a synthetic
# request corpus at the census, read the aggregates back, and prove the
# census-per-generation doctrine: a SIGHUP hot swap starts a FRESH census
# (records drop to zero under the new generation) while ingest keeps
# flowing.
# ==========================================================================
cp a.psnap live_analytics.psnap
"$PSLD" --listen 127.0.0.1:0 --snapshot live_analytics.psnap --threads 2 --analytics \
  > psld_analytics.log 2> psld_analytics.err &
ANALYTICS_PID=$!
trap 'kill "$DAEMON_PID" "$STORE_PID" "$WATCH_PID" "$ANALYTICS_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  grep -q "serving generation" psld_analytics.log 2>/dev/null && break
  kill -0 "$ANALYTICS_PID" 2>/dev/null || fail "analytics daemon died during startup"
  sleep 0.1
done
grep -q "\[analytics\]" psld_analytics.log || fail "daemon did not report analytics mode"
ANALYTICS_PORT=$(bound_port psld_analytics.log)
[[ -n "$ANALYTICS_PORT" ]] || fail "could not read the analytics daemon's bound port"
ANALYTICS_ADDR="127.0.0.1:$ANALYTICS_PORT"

# An empty census exists from the first generation on.
"$PSLD" census "$ANALYTICS_ADDR" > census0.txt || fail "census query on a fresh daemon"
grep -qx "census generation 1" census0.txt || fail "fresh census generation: $(cat census0.txt)"
grep -qx "census records 0" census0.txt || fail "fresh census not empty: $(cat census0.txt)"

# Replay a synthetic corpus at it; the census totals must account for every
# replayed record exactly.
"$PSLTOOL" census gen corpus.csv > gen.txt || fail "psltool census gen"
REQUESTS=$(sed -n 's/.* hosts, \([0-9]*\) requests/\1/p' gen.txt)
[[ -n "$REQUESTS" && "$REQUESTS" -gt 0 ]] || fail "census gen reported no requests: $(cat gen.txt)"
"$PSLTOOL" census replay corpus.csv "$ANALYTICS_ADDR" > replay1.txt || fail "census replay"
grep -q "replayed $REQUESTS records .* (generation 1..1)" replay1.txt \
  || fail "replay record count or generation: $(cat replay1.txt)"

"$PSLD" census "$ANALYTICS_ADDR" 8 > census1.txt || fail "census query after replay"
grep -qx "census generation 1" census1.txt || fail "census generation: $(cat census1.txt)"
grep -qx "census records $REQUESTS" census1.txt \
  || fail "census did not account for every replayed record: $(grep 'census records' census1.txt)"
FIRST=$(sed -n 's/^census first-party \([0-9]*\)$/\1/p' census1.txt)
THIRD=$(sed -n 's/^census third-party \([0-9]*\)$/\1/p' census1.txt)
[[ $(( FIRST + THIRD )) -eq "$REQUESTS" ]] \
  || fail "first-party ($FIRST) + third-party ($THIRD) != records ($REQUESTS)"
grep -qx "census dropped 0" census1.txt || fail "census dropped records on the tiny corpus"
grep -q "^census tracker " census1.txt || fail "census reported no trackers"
[[ $(grep -c "^census tracker " census1.txt || true) -le 8 ]] || fail "census ignored top_k 8"

# Queries and ingest share the daemon: the boundary path must still serve.
"$PSLD" query "$ANALYTICS_ADDR" shop1.myshopify.com \
  | grep -qx "shop1.myshopify.com myshopify.com" || fail "analytics daemon query"

# SIGHUP hot swap: the new generation starts a FRESH census — aggregates
# describe exactly one (list, stream) pairing, never a mixture.
cp b.psnap stage.psnap && mv stage.psnap live_analytics.psnap
kill -HUP "$ANALYTICS_PID"
for _ in $(seq 1 100); do
  grep -q "generation 2" psld_analytics.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reloaded .* generation 2" psld_analytics.log || fail "analytics SIGHUP reload"
"$PSLD" census "$ANALYTICS_ADDR" > census2.txt || fail "census query after reload"
grep -qx "census generation 2" census2.txt \
  || fail "census still on the old generation: $(cat census2.txt)"
grep -qx "census records 0" census2.txt \
  || fail "hot swap did not start a fresh census: $(grep 'census records' census2.txt)"

# Ingest keeps flowing into the new generation's census.
"$PSLTOOL" census replay corpus.csv "$ANALYTICS_ADDR" > replay2.txt \
  || fail "census replay after reload"
grep -q "(generation 2..2)" replay2.txt || fail "replay landed on a stale generation: $(cat replay2.txt)"
"$PSLD" census "$ANALYTICS_ADDR" > census3.txt || fail "census query after second replay"
grep -qx "census records $REQUESTS" census3.txt \
  || fail "new generation census did not ingest the second replay: $(grep 'census records' census3.txt)"

kill -TERM "$ANALYTICS_PID"
STATUS=0
wait "$ANALYTICS_PID" || STATUS=$?
[[ "$STATUS" -eq 0 ]] || fail "analytics daemon exited $STATUS on SIGTERM"
grep -q "psld: bye" psld_analytics.log || fail "analytics daemon did not drain cleanly"
grep -q '"analytics.ingest.records"' psld_analytics.err \
  || fail "analytics counters missing from the metrics dump"
ANALYTICS_PID=

# ==========================================================================
# Act 4: --shards. Two event loops in one process accept on one SO_REUSEPORT
# port over one engine, with the UDP fast path beside TCP. A wire reload
# lands on whichever loop took that connection and a SIGHUP on none of
# them; either way ten fresh queries over each transport must all get the
# new answer and stats must read one generation. Then --shards 2 --store
# answers match-at. Both daemons drain to a clean exit 0.
# ==========================================================================
cp a.psnap live_shards.psnap
"$PSLD" --listen 127.0.0.1:0 --snapshot live_shards.psnap --shards 2 --threads 1 --udp \
  > psld_shards.log 2> psld_shards.err &
SHARDS_PID=$!
trap 'kill "$DAEMON_PID" "$STORE_PID" "$WATCH_PID" "$ANALYTICS_PID" "$SHARDS_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  grep -q "2 shards" psld_shards.log 2>/dev/null && break
  kill -0 "$SHARDS_PID" 2>/dev/null || fail "sharded daemon died during startup"
  sleep 0.1
done
grep -q "serving generation 1 .*, 2 workers .* 2 shards" psld_shards.log \
  || fail "sharded daemon did not report the banner"
grep -q "\[udp\]" psld_shards.log || fail "sharded daemon did not report UDP mode"
[[ $(grep -c "shard [0-9] serving generation 1 .*pid $SHARDS_PID)" psld_shards.log) -eq 2 ]] \
  || fail "expected 2 shard lines from one pid: $(cat psld_shards.log)"
SHARD_PORT=$(bound_port psld_shards.log)
[[ -n "$SHARD_PORT" ]] || fail "could not read the sharded daemon's bound port"
SHARD_ADDR="127.0.0.1:$SHARD_PORT"

"$PSLD" ping "$SHARD_ADDR" | grep -qx "pong" || fail "sharded TCP ping"
"$PSLD" query "$SHARD_ADDR" a.b.co.uk | grep -qx "a.b.co.uk b.co.uk" || fail "sharded TCP query"
"$PSLD" --udp ping "$SHARD_ADDR" | grep -qx "pong" || fail "UDP ping"
"$PSLD" --udp query "$SHARD_ADDR" a.b.co.uk | grep -qx "a.b.co.uk b.co.uk" || fail "UDP query"

# Ten fresh connections (and ten datagram clients) must all answer `want`
# for shop1.myshopify.com and read `generation` from stats.
expect_fleet() {
  local want=$1 generation=$2 i
  for i in $(seq 1 10); do
    "$PSLD" query "$SHARD_ADDR" shop1.myshopify.com | grep -qx "shop1.myshopify.com $want" \
      || fail "fresh TCP query $i after $3 did not answer $want"
    "$PSLD" --udp query "$SHARD_ADDR" shop1.myshopify.com \
      | grep -qx "shop1.myshopify.com $want" \
      || fail "fresh UDP query $i after $3 did not answer $want"
    "$PSLD" stats "$SHARD_ADDR" | grep -q "^generation $generation," \
      || fail "TCP stats $i after $3 read $("$PSLD" stats "$SHARD_ADDR")"
    "$PSLD" --udp stats "$SHARD_ADDR" | grep -q "^generation $generation," \
      || fail "UDP stats $i after $3 read $("$PSLD" --udp stats "$SHARD_ADDR")"
  done
}
expect_fleet myshopify.com 1 boot

"$PSLD" reload "$SHARD_ADDR" b.psnap | grep -q "generation 2" || fail "sharded wire reload"
expect_fleet shop1.myshopify.com 2 "the wire reload"

cp a.psnap stage.psnap && mv stage.psnap live_shards.psnap
kill -HUP "$SHARDS_PID"
for _ in $(seq 1 100); do
  grep -q "reloaded .* generation 3" psld_shards.log 2>/dev/null && break
  sleep 0.1
done
grep -q "reloaded .* generation 3" psld_shards.log || fail "sharded SIGHUP reload did not land"
expect_fleet myshopify.com 3 SIGHUP

kill -TERM "$SHARDS_PID"
STATUS=0
wait "$SHARDS_PID" || STATUS=$?
[[ "$STATUS" -eq 0 ]] || fail "sharded daemon exited $STATUS on SIGTERM"
grep -q "psld: bye" psld_shards.log || fail "sharded daemon did not drain cleanly"

# --shards with --store: every loop answers time travel.
"$PSLD" --listen 127.0.0.1:0 --store hist.pstore --shards 2 --threads 1 \
  > psld_shards.log 2> psld_shards.err &
SHARDS_PID=$!
for _ in $(seq 1 100); do
  grep -q "2 shards" psld_shards.log 2>/dev/null && break
  kill -0 "$SHARDS_PID" 2>/dev/null || fail "sharded store daemon died during startup"
  sleep 0.1
done
grep -q "serving generation 1 .* 2 shards \[store\]" psld_shards.log \
  || fail "sharded store daemon did not report the banner"
SHARD_ADDR="127.0.0.1:$(bound_port psld_shards.log)"
for i in $(seq 1 10); do
  "$PSLD" match-at "$SHARD_ADDR" 2020-06-01 shop1.myshopify.com \
    | grep -qx "shop1.myshopify.com myshopify.com" || fail "sharded match-at $i, old vintage"
  "$PSLD" match-at "$SHARD_ADDR" 2021-06-01 shop1.myshopify.com \
    | grep -qx "shop1.myshopify.com shop1.myshopify.com" \
    || fail "sharded match-at $i, new vintage"
done
kill -TERM "$SHARDS_PID"
STATUS=0
wait "$SHARDS_PID" || STATUS=$?
[[ "$STATUS" -eq 0 ]] || fail "sharded store daemon exited $STATUS on SIGTERM"
grep -q "psld: bye" psld_shards.log || fail "sharded store daemon did not drain cleanly"
SHARDS_PID=

echo "net_smoke: OK (ports $PORT/$STORE_PORT/$ANALYTICS_PORT/$SHARD_PORT)"
