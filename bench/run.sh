#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds bench/ into .bench_build/ at
# the checkout root and runs the binary from there. Build cache and temp
# dirs are kept under .bench_build/ too, so a run reads and writes only
# inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters in the user's config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/rlbench" .
exec "$build/rlbench" "$@"
