#!/usr/bin/env bash
# Builds cmd/bfabric and the benchmark from this checkout into
# .bench_build/, then runs one workload:
#
#   bash portalbench/run.sh --workload browse --seed 1 --seconds 12 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/bin"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath" \
       GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod
(cd "$root" && go build -o "$work/bin/bfabric" ./cmd/bfabric)
(cd "$here" && go build -o "$work/bin/portalbench" .)
cd "$root"
exec "$work/bin/portalbench" -bfabric "$work/bin/bfabric" -work "$work" "$@"
