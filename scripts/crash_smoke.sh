#!/usr/bin/env bash
# crash_smoke.sh — kill -9 crash-recovery smoke of the daemon's (sgxgauge serve)
# durable sweep journal: a journal+store-backed coordinator is
# SIGKILL'd mid-sweep, restarted on the same directories, and must
# replay the journal, finish the job warm from the store, and serve a
# reattached client the full result set byte-identical to an
# uninterrupted standalone sweep; the finished job must then leave the
# journal. A SIGTERM'd worker must then drain gracefully: its
# deregistration drops the fleet gauge immediately instead of waiting
# out the liveness TTL.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sgxgauge" ./cmd/sgxgauge

cport=$((20000 + RANDOM % 20000))
wport=$((cport + 1))
rport=$((cport + 2))
coord="http://127.0.0.1:$cport"

wait_healthy() {
  # healthz answers 503 while the journal replay is re-enqueuing, so
  # this also waits out recovery.
  for _ in $(seq 1 100); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "crash_smoke: $1 never became healthy" >&2
  return 1
}

# has_metric URL PATTERN: whether URL's /metrics has a line matching
# PATTERN. The body is read in full before grep -q sees it: piping curl
# into grep -q lets grep close the pipe first, and curl's exit 23 then
# fails the pipeline under pipefail.
has_metric() {
  local body
  body=$(curl -sf "$1/metrics") || return 1
  grep -q "$2" <<<"$body"
}

wait_workers() {
  for _ in $(seq 1 100); do
    has_metric "$coord" "^sgxgauged_cluster_workers $1\$" && return 0
    sleep 0.2
  done
  echo "crash_smoke: coordinator never saw $1 workers" >&2
  return 1
}

start_coordinator() {
  "$workdir/sgxgauge" serve -addr "127.0.0.1:$cport" -coordinator \
    -journal.dir "$workdir/journal" -store.dir "$workdir/cstore" -fsync &
  coord_pid=$!
  pids+=($coord_pid)
}

specs=""
for mode in Vanilla LibOS; do
  for seed in $(seq 1 12); do
    specs+="{\"workload\":\"Empty\",\"mode\":\"$mode\",\"size\":\"Low\",\"seed\":$seed},"
  done
done
sweep="[${specs%,}]"
total=24

echo "== boot: journal-backed coordinator + one store-backed worker =="
start_coordinator
wait_healthy "$coord"
# -j 1 serializes the worker so the sweep is still in flight when the
# coordinator is killed. Both daemons run with -fsync, so the synced
# store and journal write paths run here too.
"$workdir/sgxgauge" serve -addr "127.0.0.1:$wport" -worker "$coord" \
  -store.dir "$workdir/wstore" -fsync -j 1 &
worker_pid=$!
pids+=($worker_pid)
wait_healthy "http://127.0.0.1:$wport"
wait_workers 1

echo "== kill -9 the coordinator mid-sweep =="
(curl -sN -X POST "$coord/v1/sweep" -d "$sweep" >"$workdir/pass1.ndjson" 2>/dev/null || true) &
curl_pid=$!
pids+=($curl_pid)
# The stream's first line is the job header; grab the id the moment it
# lands, then pull the plug.
jobid=""
for _ in $(seq 1 500); do
  jobid=$(sed -n 's/.*"event":"job","id":"\([^"]*\)".*/\1/p' "$workdir/pass1.ndjson" 2>/dev/null | head -1)
  [ -n "$jobid" ] && break
  sleep 0.02
done
[ -n "$jobid" ] || { echo "crash_smoke: sweep never emitted a job header" >&2; exit 1; }
kill -9 "$coord_pid"
wait "$curl_pid" 2>/dev/null || true

echo "== restart on the same journal and store directories =="
start_coordinator
wait_healthy "$coord"
metrics=$(curl -sf "$coord/metrics") || metrics=""
grep '^sgxgauged_journal_replayed_total' <<<"$metrics" |
  awk '{ exit !($2 >= 1) }' ||
  { echo "crash_smoke: restart replayed no journal jobs" >&2; exit 1; }
wait_workers 1

echo "== reattach: the full result set, exactly once, then done =="
curl -sf "$coord/v1/jobs/$jobid" >"$workdir/reattach.ndjson"
grep '"event":"result"' "$workdir/reattach.ndjson" >"$workdir/reattach_results.ndjson" || true
n=$(wc -l <"$workdir/reattach_results.ndjson")
[ "$n" -eq "$total" ] || { echo "crash_smoke: reattach streamed $n results, want $total" >&2; exit 1; }
tail -1 "$workdir/reattach.ndjson" | grep -q '"event":"done".*"ok":true' ||
  { echo "crash_smoke: reattach stream did not end with done ok:true" >&2; exit 1; }

echo "== the finished job leaves the journal =="
# Finish removes the job file just after the done event lands, so give
# it a moment before requiring an empty jobs/ directory.
open_jobs() { find "$workdir/journal/jobs" -name '*.ndjson' | wc -l; }
for _ in $(seq 1 50); do
  [ "$(open_jobs)" -eq 0 ] && break
  sleep 0.1
done
[ "$(open_jobs)" -eq 0 ] ||
  { echo "crash_smoke: journal still holds $(open_jobs) job files after the job finished" >&2; exit 1; }

echo "== byte-identical to an uninterrupted standalone sweep =="
"$workdir/sgxgauge" serve -addr "127.0.0.1:$rport" &
pids+=($!)
wait_healthy "http://127.0.0.1:$rport"
curl -sf -X POST "http://127.0.0.1:$rport/v1/sweep" -d "$sweep" |
  grep '"event":"result"' >"$workdir/reference_results.ndjson"
cmp "$workdir/reattach_results.ndjson" "$workdir/reference_results.ndjson"

echo "== SIGTERM worker: graceful drain beats the TTL =="
kill -TERM "$worker_pid"
wait "$worker_pid" 2>/dev/null || true
# Deregistration is immediate; the 15s liveness TTL never enters into
# it. Give the goodbye post a couple of seconds at most.
for _ in $(seq 1 20); do
  has_metric "$coord" '^sgxgauged_cluster_workers 0$' && break
  sleep 0.1
done
has_metric "$coord" '^sgxgauged_cluster_workers 0$' ||
  { echo "crash_smoke: drained worker still registered" >&2; exit 1; }
has_metric "$coord" '^sgxgauged_cluster_drained_workers_total 1$' ||
  { echo "crash_smoke: drain was not counted as a graceful deregistration" >&2; exit 1; }

echo "crash_smoke: OK"
