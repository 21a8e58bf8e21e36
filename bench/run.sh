#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it; BENCHMARK.json's
# command. Everything the Go toolchain writes — build cache, temporary
# files, the binary — stays in .bench_build at the root of the checkout,
# and the benchmark's own output in bench/out.
#
#   bash bench/run.sh --workload sweep-emu --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh                 # every workload, untraced then traced
#   bash bench/run.sh -sets 5         # five sets, medians and spreads
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
# Nothing is downloaded: the module needs the standard library and the
# checkout it sits in.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$build/campaign" ./campaign
cd "$here"
exec "$build/campaign" "$@"
