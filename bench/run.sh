#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root:
#
#   bash bench/run.sh --workload inproc-put-sat --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays inside the checkout: the binary and the Go build
# cache go to .bench_build/, reports and spans to .bench_out/ (see -out).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/kvbench" .)
exec "$build/kvbench" "$@"
