#!/bin/sh
# scripts/lint.sh — the pre-PR ritual, in one command:
#
#	go build ./... && go test ./... && go run ./cmd/sgxlint ./...
#
# sgxlint is the in-tree invariant suite (see DESIGN.md §8): it
# type-checks every package with the standard library only, builds a
# module-wide call graph, and enforces determinism, error propagation,
# lock discipline (including interprocedural caller-holds paths),
# saturating cycle arithmetic, context-aware blocking, goroutine
# joining, and streaming-loop error handling. It exits non-zero on any unsuppressed finding, so this
# script does too.
#
# Usage: scripts/lint.sh [--fast]
#   --fast  skip the test run (build + lint only)
set -eu
cd "$(dirname "$0")/.."

go build ./...
if [ "${1:-}" != "--fast" ]; then
	go test ./...
fi
go run ./cmd/sgxlint ./...
