#!/usr/bin/env bash
# Builds the benchmark inside the checkout (Go's build cache and temporary
# files included, so nothing is written outside it) and runs it with the
# arguments given. The first call in a fresh checkout compiles the module and
# the standard library; later calls only check that the binary is current.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/kvcsd-benchmark" .)
cd "$root"
exec "$build/kvcsd-benchmark" -out "$root/.bench_out" "$@"
