#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload yahoo-long --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# binary all live under .bench_build/ in the current directory, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOENV=off
export GOWORK=off

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
