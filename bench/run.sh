#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given
# arguments. The Go build cache, temporary files and the daemon's
# scratch directories all stay under .bench_build/ in the current
# directory, which must be the repository root:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "bench/run.sh: run it from the repository root" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/sgxbench" ./bench
exec "$out/sgxbench" "$@"
