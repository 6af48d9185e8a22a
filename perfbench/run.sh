#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run records stay in .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --revision "$rev" --record "$out/runs" "$@"
