#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; everything built or written goes under
# .bench_build there, including the Go build cache.
#
#   bash bench/run.sh --workload serve-warm --seed 3 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$build/mbavf-bench" .)
exec "$build/mbavf-bench" "$@"
