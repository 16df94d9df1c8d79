#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perf/run.sh --workload seq-pareto --seed 1 --seconds 10 --trace 0
#
# Everything it writes (build cache, binary, trace spans) goes under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perf" && go build -o "$build/wrs-perf" .)
exec "$build/wrs-perf" -out "$build/trace" "$@"
