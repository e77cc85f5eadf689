#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash softbench/run.sh --workload flowmod-explore --seed 1 --seconds 24 --trace 0
# Everything the build and the runs write stays under .bench_build/ and
# .bench_out/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/softbench" && go build -o "$build/softbench" .)
exec "$build/softbench" "$@"
