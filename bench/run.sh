#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds powbench from source into
# .bench_build/ at the checkout root (nothing is written outside the
# checkout, the Go build cache included) and runs it from that root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/powbench" ./powbench)
cd "$root"
exec "$build/powbench" "$@"
