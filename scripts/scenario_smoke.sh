#!/usr/bin/env bash
# scenario_smoke.sh — end-to-end smoke of attested multi-enclave
# scenarios through the daemon and the sweep cluster: a single node
# runs a sweep of scenario specs, then a coordinator plus two workers
# run the identical sweep, and the result streams must agree
# byte-for-byte. This pins the determinism contract across process
# boundaries: a scenario's interleaving is a pure function of its
# spec, so where it executes (local engine, worker A, worker B) can
# never show in the bytes.
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

port=$((24000 + RANDOM % 20000))
w1port=$((port + 1))
w2port=$((port + 2))
base="http://127.0.0.1:$port"
epc=2048

wait_healthy() {
  for _ in $(seq 1 50); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "scenario_smoke: $1 never became healthy" >&2
  return 1
}

stop_fleet() {
  for pid in "${pids[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  pids=()
}

sweep='[{"mode":"Native","size":"Low","seed":1,"scenario":{"version":1,"name":"attested-session"}},
       {"mode":"Native","size":"Low","seed":2,"scenario":{"version":1,"name":"attested-session"}},
       {"mode":"Native","size":"Low","seed":3,"scenario":{"version":1,"name":"consensus"}},
       {"mode":"Native","size":"Low","seed":4,"scenario":{"version":1,"name":"noisy-neighbor"}},
       {"mode":"Native","size":"Low","seed":5,"scenario":{"version":1,"name":"interference"}}]'

echo "== pass 1: single node runs the scenario sweep =="
"$workdir/sgxgauge" serve -addr "127.0.0.1:$port" -epc "$epc" &
pids+=($!)
wait_healthy "$base"
# /v1/scenarios lists the scenarios; one runs as a SpecWire document
# posted to /v1/run. (Responses land in files first: grep -q closing
# the pipe early makes curl report a write error under pipefail.)
curl -sf "$base/v1/scenarios" >"$workdir/list.json"
grep -q '"attested-session"' "$workdir/list.json"
grep -q '"interference"' "$workdir/list.json"
curl -sf -X POST "$base/v1/run" -d '{"mode":"Native","seed":9,"scenario":{"version":1,"name":"consensus",
  "enclaves":[{"role":"node","size":"Medium"},{"role":"node","size":"Medium"}]}}' >"$workdir/run.json"
grep -q '"name":"consensus"' "$workdir/run.json"
curl -sf -X POST "$base/v1/sweep" -d "$sweep" | grep '"event":"result"' >"$workdir/single.ndjson"
grep -c '"event":"result"' "$workdir/single.ndjson" | grep -qx 5
stop_fleet

echo "== pass 2: coordinator + 2 workers run the identical sweep =="
"$workdir/sgxgauge" serve -addr "127.0.0.1:$port" -epc "$epc" -coordinator &
pids+=($!)
wait_healthy "$base"
"$workdir/sgxgauge" serve -addr "127.0.0.1:$w1port" -epc "$epc" -worker "$base" &
pids+=($!)
"$workdir/sgxgauge" serve -addr "127.0.0.1:$w2port" -epc "$epc" -worker "$base" &
pids+=($!)
wait_healthy "http://127.0.0.1:$w1port"
wait_healthy "http://127.0.0.1:$w2port"
for _ in $(seq 1 50); do
  curl -sf "$base/metrics" >"$workdir/metrics.txt"
  grep -q '^sgxgauged_cluster_workers 2$' "$workdir/metrics.txt" && break
  sleep 0.2
done
grep -q '^sgxgauged_cluster_workers 2$' "$workdir/metrics.txt"

curl -sf -X POST "$base/v1/sweep" -d "$sweep" | grep '"event":"result"' >"$workdir/cluster.ndjson"
# The fleet did the work, not the coordinator's local engine.
curl -sf "$base/metrics" >"$workdir/metrics.txt"
grep -q '^sgxgauged_cluster_local_runs_total 0$' "$workdir/metrics.txt"
grep -q '^sgxgauged_cluster_completed_total 5$' "$workdir/metrics.txt"

cmp "$workdir/single.ndjson" "$workdir/cluster.ndjson"
stop_fleet

echo "scenario_smoke: OK"
