#!/usr/bin/env bash
# The command of BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ at the root of the checkout -- Go's build cache and work
# directory included, so nothing is written outside the checkout -- and
# runs it with the caller's arguments. Output files go to bench/out/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$bench" && go build -o "$build/bench" .)
exec "$build/bench" -out "$bench/out" "$@"
