#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout and runs it there.
# Every byte the build writes (binaries and the Go build cache) stays inside
# the checkout. Arguments are passed through to the benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/dbest-benchmark" .)
cd "$root"
exec "$build/dbest-benchmark" "$@"
