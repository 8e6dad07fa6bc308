#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the repository root and runs it there with the
# driver's arguments. Every file Go writes — build cache, temporary
# files, the binary — stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
