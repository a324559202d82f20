#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload solve-small --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/go-path" \
	GOMODCACHE="$build/go-path/pkg/mod" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench-bin" .)
cd "$root"
exec "$build/perfbench-bin" "$@"
