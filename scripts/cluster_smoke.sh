#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke of the daemon's (sgxgauge serve) sweep cluster:
# a coordinator plus two store-backed workers serve a sweep, then the
# whole fleet is restarted on the same store directories and the same
# sweep must come back byte-identical with zero fresh simulations
# (every spec warm from disk).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sgxgauge" ./cmd/sgxgauge

cport=$((20000 + RANDOM % 20000))
w1port=$((cport + 1))
w2port=$((cport + 2))
coord="http://127.0.0.1:$cport"

wait_healthy() {
  for _ in $(seq 1 50); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "cluster_smoke: $1 never became healthy" >&2
  return 1
}

start_fleet() {
  "$workdir/sgxgauge" serve -addr "127.0.0.1:$cport" -coordinator &
  pids+=($!)
  wait_healthy "$coord"
  "$workdir/sgxgauge" serve -addr "127.0.0.1:$w1port" -worker "$coord" -store.dir "$workdir/store1" &
  pids+=($!)
  "$workdir/sgxgauge" serve -addr "127.0.0.1:$w2port" -worker "$coord" -store.dir "$workdir/store2" &
  pids+=($!)
  wait_healthy "http://127.0.0.1:$w1port"
  wait_healthy "http://127.0.0.1:$w2port"
  for _ in $(seq 1 50); do
    curl -sf "$coord/metrics" | grep -q '^sgxgauged_cluster_workers 2$' && return 0
    sleep 0.2
  done
  echo "cluster_smoke: workers never registered" >&2
  return 1
}

stop_fleet() {
  for pid in "${pids[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  pids=()
}

sweep='[{"workload":"Empty","mode":"Vanilla","size":"Low","seed":1},
       {"workload":"Empty","mode":"Vanilla","size":"Low","seed":2},
       {"workload":"Empty","mode":"LibOS","size":"Low","seed":3},
       {"workload":"Empty","mode":"Vanilla","size":"Low","seed":4}]'

echo "== pass 1: cold fleet executes the sweep =="
start_fleet
curl -sf -X POST "$coord/v1/sweep" -d "$sweep" | grep '"event":"result"' >"$workdir/pass1.ndjson"
grep -c '"event":"result"' "$workdir/pass1.ndjson" | grep -qx 4
# The fleet did the work: the coordinator ran nothing locally, and
# every spec landed in a worker's store.
curl -sf "$coord/metrics" | grep -q '^sgxgauged_cluster_local_runs_total 0$'
curl -sf "$coord/metrics" | grep -q '^sgxgauged_cluster_completed_total 4$'
entries=0
for port in "$w1port" "$w2port"; do
  n=$(curl -sf "http://127.0.0.1:$port/metrics" | sed -n 's/^sgxgauged_store_entries //p')
  entries=$((entries + n))
done
[ "$entries" -eq 4 ] || { echo "cluster_smoke: stores hold $entries entries, want 4" >&2; exit 1; }
stop_fleet

echo "== pass 2: restarted fleet serves the sweep warm from disk =="
start_fleet
curl -sf -X POST "$coord/v1/sweep" -d "$sweep" | grep '"event":"result"' >"$workdir/pass2.ndjson"
cmp "$workdir/pass1.ndjson" "$workdir/pass2.ndjson"
# Zero simulations anywhere: the coordinator still ran nothing, and
# each worker served its shard purely from its store — every store
# read hit (no misses) and nothing new was persisted (no puts).
curl -sf "$coord/metrics" | grep -q '^sgxgauged_cluster_local_runs_total 0$'
for port in "$w1port" "$w2port"; do
  curl -sf "http://127.0.0.1:$port/metrics" | grep -q '^sgxgauged_store_misses_total 0$'
  curl -sf "http://127.0.0.1:$port/metrics" | grep -q '^sgxgauged_store_puts_total 0$'
done
stop_fleet

echo "cluster_smoke: OK"
