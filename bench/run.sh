#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it:
#   bash bench/run.sh                       all five workloads, results file
#   bash bench/run.sh -traced               ... plus the per-layer pass
#   bash bench/run.sh --workload X --seed N --seconds S --trace 0|1
# Build cache, binary, results, span files and temp dirs all live under
# .bench_build/ in the current directory (the checkout root).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/coherence-bench" . >&2
exec "$out/coherence-bench" "$@"
