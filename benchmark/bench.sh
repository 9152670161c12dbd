#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it. Every
# byte the toolchain writes (build cache, temp files, binaries) lands
# under <repo>/.bench_build, so a run touches nothing outside the tree.
#
#   bash benchmark/bench.sh --workload engine_mix --seed 1 --seconds 12 --trace 0
#   bash benchmark/bench.sh run [-workload NAME] [-seed N] [-out DIR]
#   bash benchmark/bench.sh trace [-workload NAME] [-seed N]
#   bash benchmark/bench.sh check A.json B.json
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off OCTOPUS_BENCH_ROOT="$root"
go -C "$here" build -o "$build/bin/octopus-benchmark" .
exec "$build/bin/octopus-benchmark" "$@"
