#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source into
# .bench_build/ in the checkout, then run it with the driver's flags.
# Build cache and temporary files stay inside the checkout, so a run
# reads and writes nothing outside it.
#
#   bash bench/run.sh --workload embed-hot --seed 1 --seconds 16 --trace 0
#
# By hand, `go run ./bench` does the same with the user's Go cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
