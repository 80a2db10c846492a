#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload esuite --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files stay
# under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
