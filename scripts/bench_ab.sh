#!/usr/bin/env bash
# scripts/bench_ab.sh — the repository benchmark's regression gate:
# the working tree (head) against BASE_REV (base).
#
#   scripts/bench_ab.sh BASE_REV
#
# Builds the bench at BASE_REV, in a temporary git worktree, and at the
# working tree. Runs the two binaries in ABBA order (base, head, head,
# base), each with --seed 1 --rounds 2 --trace 0, and compares each
# half with `bench compare`. The machine's speed drifts during a run:
# drift mostly lands in one half, a real regression shows in both.
#
# Exits non-zero when
#   - any bench run exits non-zero: a failed op, or a seed-1 digest that
#     differs from that side's committed bench/testdata/digests.json;
#   - the same workload and metric reads `worse` in both halves;
#   - a half prints fewer than 24 verdict rows (4 workloads x 6
#     metrics), so a change to compare's output cannot turn the gate off.
# `unresolved` verdicts and a base/head digest difference are printed
# but do not fail. Run it from the repository root.
set -euo pipefail

base_rev=${1:?usage: scripts/bench_ab.sh BASE_REV}
if [ ! -f go.mod ]; then
	echo "bench_ab: run it from the repository root" >&2
	exit 2
fi
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/tree" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT

git worktree add --detach "$tmp/tree" "$base_rev" >/dev/null
(cd "$tmp/tree" && go build -buildvcs=false -o "$tmp/base" ./bench)
go build -buildvcs=false -o "$tmp/head" ./bench

status=0
for run in base1 head1 head2 base2; do
	echo "== $run" >&2
	if ! "$tmp/${run%?}" --seed 1 --rounds 2 --trace 0 -o "$tmp/$run.json"; then
		echo "bench_ab: $run failed" >&2
		status=1
	fi
done

for half in 1 2; do
	echo "== half $half: base$half vs head$half"
	"$tmp/head" compare "$tmp/base$half.json" "$tmp/head$half.json" | tee "$tmp/half$half.txt" || status=1
	rows=$(awk '$NF ~ /^(worse|better|unchanged|unresolved)$/' "$tmp/half$half.txt" | wc -l)
	if [ "$rows" -lt 24 ]; then
		echo "bench_ab: half $half has $rows verdict rows, want at least 24" >&2
		status=1
	fi
	awk '$NF == "worse" { print $1, $2 }' "$tmp/half$half.txt" | sort >"$tmp/worse$half"
done

both=$(comm -12 "$tmp/worse1" "$tmp/worse2")
if [ -n "$both" ]; then
	echo "bench_ab: worse in both halves:" >&2
	echo "$both" >&2
	status=1
fi
exit "$status"
