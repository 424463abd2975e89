#!/usr/bin/env bash
# The benchmark's entry point for BENCHMARK.json: build the driver from
# source inside the checkout and run it. The build cache and the binary
# live in .bench_build/ (git-ignored), so a run reads and writes nothing
# outside the checkout it was started in. By hand, `go run ./bench` does
# the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
