#!/usr/bin/env bash
# Builds the benchmark (and with it the program, from source) and runs it
# from the repository root. Everything the build writes stays in the
# checkout: the Go build cache and the binary live under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
mkdir -p .bench_build
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
